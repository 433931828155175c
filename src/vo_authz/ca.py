"""Trust-root key management and identity issuance.

One flat trust root signs every identity credential; services verify
credential chains against its public key. The CLI here exists so a
demo environment can be stood up from scratch: create a root, then
issue passphrase-protected identity files to users and service hosts.
"""

from __future__ import annotations

import argparse
import dataclasses
import getpass
import json
import os
import sys
import tempfile
from datetime import datetime, timedelta
from typing import Optional

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .credentials import (
    CredentialError,
    IdentityCredential,
    MalformedCredential,
    generate_keypair,
    identity_from_doc,
    identity_to_doc,
    floor_to_second,
    private_key_from_pem,
    private_key_to_pem,
    public_key_to_pem,
    utc_now,
)

ROOT_KEY_FILE = "ca_key.pem"
TRUST_ROOT_FILE = "trust_root.pem"


def make_identity(
    root_key: Ed25519PrivateKey,
    subject: str,
    public_key: bytes,
    not_before: datetime,
    not_after: datetime,
) -> IdentityCredential:
    """Sign an identity credential with the trust-root key."""
    unsigned = IdentityCredential(
        subject=subject,
        public_key=public_key,
        not_before=floor_to_second(not_before),
        not_after=floor_to_second(not_after),
        signature=b"",
    )
    return dataclasses.replace(unsigned, signature=root_key.sign(unsigned.signed_payload()))


def issue_identity_keypair(
    root_key: Ed25519PrivateKey,
    subject: str,
    not_before: datetime,
    not_after: datetime,
    passphrase: Optional[bytes] = None,
) -> dict:
    """Create a fresh identity: credential document plus its private key.

    The returned document is what an identity file holds; the private
    key is PEM-encoded, encrypted when a passphrase is given.
    """
    private, public = generate_keypair()
    credential = make_identity(root_key, subject, public, not_before, not_after)
    doc = identity_to_doc(credential)
    doc["private_key_pem"] = private_key_to_pem(private, passphrase)
    return doc


def load_identity_keypair(path: str, passphrase: Optional[bytes] = None
                          ) -> tuple[IdentityCredential, Ed25519PrivateKey]:
    """Load an identity file: the credential and its decrypted key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedCredential("identity file is not JSON: %s" % exc) from exc
    if not isinstance(doc, dict) or "private_key_pem" not in doc:
        raise MalformedCredential("identity file lacks a private key")
    pem = doc.pop("private_key_pem")
    credential = identity_from_doc(doc)
    private = private_key_from_pem(pem, passphrase)
    return credential, private


def write_atomically(path: str, data: bytes) -> None:
    """Replace ``path`` with an owner-only file holding ``data``.

    The data is synced under a fresh temporary name and then renamed
    over ``path``, so readers see the old file or the new one. On failure
    the temporary file is removed and ``path`` is untouched. The new file
    is 0600 even when ``path`` existed with a wider mode. The temporary
    file is created with ``O_EXCL`` under a random name, so a leftover
    file cannot lend it its mode, and concurrent writers of one path
    never share it.
    """
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=name + ".tmp.", dir=directory or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


write_owner_only = write_atomically  # the same writer, under the name bench/workload.py calls


def init_root(directory: str) -> tuple[str, str]:
    """Create a trust root: private key and public trust-root PEM."""
    os.makedirs(directory, exist_ok=True)
    private, public = generate_keypair()
    key_path = os.path.join(directory, ROOT_KEY_FILE)
    root_path = os.path.join(directory, TRUST_ROOT_FILE)
    write_atomically(key_path, private_key_to_pem(private).encode("ascii"))
    with open(root_path, "w", encoding="ascii") as fh:
        fh.write(public_key_to_pem(public))
    return key_path, root_path


def load_root_key(directory: str) -> Ed25519PrivateKey:
    with open(os.path.join(directory, ROOT_KEY_FILE), "r", encoding="ascii") as fh:
        return private_key_from_pem(fh.read())


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="vo-ca", description="Trust root and identity issuance")
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init-root", help="create a trust-root keypair")
    p_init.add_argument("--dir", required=True, help="directory for the root key and trust-root PEM")

    p_issue = sub.add_parser("issue-identity", help="issue an identity file")
    p_issue.add_argument("--dir", required=True, help="trust-root directory (from init-root)")
    p_issue.add_argument("--subject", required=True, help="subject distinguished name")
    p_issue.add_argument("--out", required=True, help="identity file to write")
    p_issue.add_argument("--days", type=int, default=365, help="validity in days (default 365)")
    p_issue.add_argument(
        "--passphrase-env",
        help="environment variable holding the passphrase (prompts otherwise)",
    )
    p_issue.add_argument(
        "--public-out",
        help="also write the credential without the private key (for trusting peers)",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "init-root":
            key_path, root_path = init_root(args.dir)
            print("trust root key: %s" % key_path)
            print("trust root public: %s" % root_path)
        else:
            if args.passphrase_env:
                passphrase = os.environ.get(args.passphrase_env, "").encode("utf-8")
            else:
                passphrase = getpass.getpass("Passphrase for new identity: ").encode("utf-8")
            root_key = load_root_key(args.dir)
            now = utc_now()
            doc = issue_identity_keypair(
                root_key,
                args.subject,
                not_before=now,
                not_after=now + timedelta(days=args.days),
                passphrase=passphrase or None,
            )
            write_atomically(args.out, json.dumps(doc, indent=2).encode("utf-8"))
            print("issued identity for %s -> %s" % (args.subject, args.out))
            if args.public_out:
                public = {k: v for k, v in doc.items() if k != "private_key_pem"}
                with open(args.public_out, "w", encoding="utf-8") as fh:
                    json.dump(public, fh, indent=2)
                print("public credential -> %s" % args.public_out)
    except (CredentialError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
