"""The ``vo`` command.

Workflow: ``vo identity-init`` starts a session from the long-term
identity key, ``vo cas-init <tag>`` obtains an assertion (optionally
narrowed by a filter file) and stores it under the tag, ``vo run <tag>
<ls|get|put> ...`` executes one file command under that tag, and
``vo tags`` lists what is stored. ``vo admin-load`` pushes a policy
command file to the issuance service for administrators.

A refused file command prints the service's status, code and message
and exits 1. The file service has already audited the refusal under
the acting DN; a ``cas-rights`` refusal names the URL that the
assertion's file rights were checked against.
"""

from __future__ import annotations

import argparse
import getpass
import os
import sys
from typing import Optional

from . import wire
from .client import (
    ClientError,
    ResourceSession,
    ServiceError,
    admin_load,
    credential_dir,
    identity_init,
    identity_path,
    issue_assertion,
    list_tags,
    load_session,
    load_unexpired_tag,
    store_tag,
)
from .credentials import (
    DEFAULT_LIFETIME_SECONDS,
    CredentialError,
    format_timestamp,
    read_identity_file,
    utc_now,
)
from .engine import parse_filter_file, roles_in

DEFAULT_CAS_ADDRESS = "localhost:9000"
DEFAULT_RESOURCE_ADDRESS = "localhost:2813"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vo", description="VO credential and file-access client"
    )
    parser.add_argument(
        "--dir", help="credential directory (default $VO_AUTHZ_DIR or ~/.vo-authz)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identity-init", help="start a session from the identity key")
    p.add_argument(
        "--lifetime-seconds",
        type=int,
        default=DEFAULT_LIFETIME_SECONDS,
        help="session lifetime (default %(default)s)",
    )
    p.add_argument(
        "--passphrase-env",
        default="VO_AUTHZ_PASSPHRASE",
        help="environment variable holding the identity passphrase (prompts otherwise)",
    )
    p.set_defaults(run=_cmd_identity_init)

    p = sub.add_parser("cas-init", help="obtain an assertion and store it under a tag")
    p.add_argument("tag", help="name for the stored assertion")
    p.add_argument("--filter", help="rights-filter file narrowing the request")
    p.add_argument("--server", default=DEFAULT_CAS_ADDRESS, help="issuance service addr:port")
    p.add_argument("--lifetime-seconds", type=int, help="requested assertion lifetime")
    p.set_defaults(run=_cmd_cas_init)

    p = sub.add_parser("run", help="run one file command under a tag")
    p.add_argument("tag", help="which stored assertion to present")
    p.add_argument("verb", choices=("ls", "get", "put"))
    p.add_argument("args", nargs="*", help="ls <remote> | get <remote> <local> | put <local> <remote>")
    p.add_argument("--server", default=DEFAULT_RESOURCE_ADDRESS, help="file service addr:port")
    p.set_defaults(run=_cmd_run)

    sub.add_parser("tags", help="list stored tags").set_defaults(run=_cmd_tags)

    p = sub.add_parser("admin-load", help="load a policy command file (admins only)")
    p.add_argument("file", help="command file to apply")
    p.add_argument("--server", default=DEFAULT_CAS_ADDRESS, help="issuance service addr:port")
    p.set_defaults(run=_cmd_admin_load)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    directory = credential_dir(args.dir)
    try:
        return args.run(args, directory)
    except ServiceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        for tuple_dict in exc.uncovered:
            print(
                "not granted: %(service_type)s %(action)s %(target)s %(match_mode)s"
                % tuple_dict,
                file=sys.stderr,
            )
        return 1
    except (ClientError, CredentialError, wire.WireError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _identity_needs_passphrase(directory: str) -> bool:
    try:
        _, pem = read_identity_file(identity_path(directory))
    except (OSError, ValueError, CredentialError):
        return False
    return isinstance(pem, str) and "ENCRYPTED" in pem


def _cmd_identity_init(args, directory: str) -> int:
    passphrase = None
    if _identity_needs_passphrase(directory):
        value = os.environ.get(args.passphrase_env or "", "")
        if not value:
            value = getpass.getpass("Identity passphrase: ")
        passphrase = value.encode("utf-8")
    bundle = identity_init(directory, passphrase, args.lifetime_seconds)
    print("Your identity: %s" % bundle.subject)
    print("Session valid until %s" % format_timestamp(bundle.session.not_after))
    return 0


def _cmd_cas_init(args, directory: str) -> int:
    bundle = load_session(directory)
    requested = []
    if args.filter:
        with open(args.filter, "r", encoding="utf-8") as handle:
            requested = parse_filter_file(handle.read())
    assertion = issue_assertion(
        wire.parse_address(args.server),
        bundle,
        requested,
        lifetime_seconds=args.lifetime_seconds,
    )
    replaced = store_tag(directory, args.tag, assertion)
    if replaced:
        print("warning: replaced existing tag %r" % args.tag, file=sys.stderr)
    print(
        "tag %s stored; expires %s"
        % (args.tag, format_timestamp(assertion.body.not_after))
    )
    return 0


def _arity(values: list[str], count: int, usage: str) -> list[str]:
    if len(values) != count:
        raise ClientError("usage: %s" % usage)
    return values


def _cmd_run(args, directory: str) -> int:
    if args.verb == "ls":
        (remote_path,) = _arity(args.args, 1, "ls <remote-path>")
    elif args.verb == "get":
        remote_path, local = _arity(args.args, 2, "get <remote> <local>")
    else:
        local, remote_path = _arity(args.args, 2, "put <local> <remote>")
    bundle = load_session(directory)
    assertion = load_unexpired_tag(directory, args.tag)
    with ResourceSession(wire.parse_address(args.server), bundle, assertion) as session:
        if args.verb == "ls":
            for name in session.ls(remote_path):
                print(name)
        elif args.verb == "get":
            _download(session, remote_path, local)
        else:
            with open(local, "rb") as handle:
                data = handle.read()
            session.put(remote_path, data)
        session.quit()
    return 0


def _download(session: ResourceSession, remote: str, local: str) -> None:
    handle = open(local, "wb")
    try:
        with handle:
            session.get(remote, handle)
    except BaseException:
        try:
            os.unlink(local)
        except OSError:
            pass
        raise


def _cmd_tags(args, directory: str) -> int:
    now = utc_now()
    for tag, assertion in list_tags(directory):
        body = assertion.body
        roles = ",".join(roles_in(body.rights)) or "-"
        expiry = format_timestamp(body.not_after)
        flag = "\texpired" if now >= body.not_after else ""
        print("%s\t%s\t%s\t%s%s" % (tag, body.subject, roles, expiry, flag))
    return 0


def _cmd_admin_load(args, directory: str) -> int:
    bundle = load_session(directory)
    with open(args.file, "r", encoding="utf-8") as handle:
        commands = handle.read()
    applied = admin_load(wire.parse_address(args.server), bundle, commands)
    print("applied %d commands" % applied)
    return 0


if __name__ == "__main__":
    sys.exit(main())
