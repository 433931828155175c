#!/usr/bin/env bash
# End-to-end walk-through: trust root, identities, both services, and a
# role handover, all on localhost. Run from anywhere after `pip install -e .`:
#
#   bash demo/run-demo.sh
#
# Everything lands in a scratch directory next to this script and is
# recreated on every run.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
scratch="$here/demo-run"
rm -rf "$scratch"
mkdir -p "$scratch"
cd "$scratch"

CAS_ADDR=127.0.0.1:9300
FILE_ADDR=127.0.0.1:9301

ALICE="/O=example.org/OU=People/CN=Alice Demo 1001"
BOB="/O=example.org/OU=People/CN=Bob Demo 1002"
ADMIN="/O=example.org/OU=People/CN=Demo Admin 1"
CAS="/O=example.org/CN=demo-cas"

step() { printf '\n== %s ==\n' "$*"; }

# Unset on purpose: identities are issued without a passphrase.
export VO_DEMO_NO_PASS=""

step "trust root and identities"
vo-ca init-root --dir ca
vo-ca issue-identity --dir ca --subject "$CAS" --out cas.json \
    --public-out cas-public.json --passphrase-env VO_DEMO_NO_PASS
for who in alice bob admin; do
    mkdir -p "$who-home"
done
vo-ca issue-identity --dir ca --subject "$ALICE" --out alice-home/identity.json \
    --passphrase-env VO_DEMO_NO_PASS
vo-ca issue-identity --dir ca --subject "$BOB" --out bob-home/identity.json \
    --passphrase-env VO_DEMO_NO_PASS
vo-ca issue-identity --dir ca --subject "$ADMIN" --out admin-home/identity.json \
    --passphrase-env VO_DEMO_NO_PASS

step "service configuration"
cat > cas.conf <<EOF
listen = $CAS_ADDR
key_file = cas.json
trust_root_file = ca/trust_root.pem
snapshot_file = policy.snapshot
admin_dns = "$ADMIN"
EOF

mkdir -p export/home/admin export/home/data export/public
echo "event 4027 / event 4028 / event 4029" > export/home/data/run1.dat
echo "world-readable notes" > export/public/readme.txt

cat > roles.map <<EOF
demo/admin admin
demo/data data
EOF
cat > grid.map <<EOF
"$CAS" admin,data
EOF
cat > accounts.map <<EOF
admin /home/admin rw
data /home/data rw
EOF
cat > files.conf <<EOF
listen = $FILE_ADDR
server_name = demo.example.org
trust_root_file = ca/trust_root.pem
issuer_files = "cas-public.json"
role_map_file = roles.map
grid_map_file = grid.map
account_file = accounts.map
export_root = export
audit_file = audit.log
public_root = /public
EOF

step "starting services"
vo-cas-server --config cas.conf > cas-server.log 2>&1 &
CAS_PID=$!
vo-file-server --config files.conf > file-server.log 2>&1 &
FILE_PID=$!
# SIGTERM stops a server as Ctrl-C does: it ends its open sessions and
# exits 0. Anything else is a failed demo.
stop_services() {
    local status=$?
    kill "$CAS_PID" "$FILE_PID" 2>/dev/null || true
    for pid in "$CAS_PID" "$FILE_PID"; do
        if ! wait "$pid"; then
            echo "ERROR: server $pid did not exit cleanly" >&2
            status=1
        fi
    done
    exit "$status"
}
trap stop_services EXIT
python3 - "$CAS_ADDR" "$FILE_ADDR" <<'EOF'
import socket, sys, time
for spec in sys.argv[1:]:
    host, port = spec.rsplit(":", 1)
    for _ in range(50):
        try:
            socket.create_connection((host, int(port)), timeout=0.2).close()
            break
        except OSError:
            time.sleep(0.1)
    else:
        sys.exit("service at %s never came up" % spec)
EOF
echo "both services up"

step "the administrator loads the initial policy"
export VO_AUTHZ_DIR="$scratch/admin-home"
vo identity-init
vo admin-load "$here/policy-initial.cmds" --server "$CAS_ADDR"

step "Alice obtains the data role and uses it"
export VO_AUTHZ_DIR="$scratch/alice-home"
vo identity-init
vo cas-init data --filter "$here/filters/data-only.filter" --server "$CAS_ADDR"
vo tags
vo run data ls /home/data --server "$FILE_ADDR"
vo run data get /home/data/run1.dat fetched.dat --server "$FILE_ADDR"
echo "analysis complete" > results.txt
vo run data put results.txt /home/data/results.txt --server "$FILE_ADDR"
vo run data ls /home/data --server "$FILE_ADDR"

step "the role moves from Alice to Bob"
export VO_AUTHZ_DIR="$scratch/admin-home"
vo admin-load "$here/policy-handover.cmds" --server "$CAS_ADDR"

step "Alice can no longer obtain the role"
export VO_AUTHZ_DIR="$scratch/alice-home"
if vo cas-init data --filter "$here/filters/data-only.filter" --server "$CAS_ADDR"; then
    echo "ERROR: issuance should have been refused" >&2
    exit 1
fi
echo "(refused, as intended)"

step "Bob holds it now"
export VO_AUTHZ_DIR="$scratch/bob-home"
vo identity-init
vo cas-init data --filter "$here/filters/data-only.filter" --server "$CAS_ADDR"
vo run data get /home/data/results.txt from-alice.txt --server "$FILE_ADDR"
cat from-alice.txt

step "the audit trail"
cat audit.log

step "done (scratch tree kept at $scratch)"
