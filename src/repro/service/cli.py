"""``python -m repro serve-store`` and ``python -m repro serve``.

Thin command handlers in the CLI's house style: parse, build the
service object, announce ``listening on HOST:PORT`` (the same line
``repro worker`` prints, so scripts learn OS-assigned ports the same
way), serve until interrupted, exit 0.
"""

from __future__ import annotations

import argparse

from repro.core.errors import VerificationError
from repro.framing import parse_endpoint


def _parse_listen(text: str) -> tuple[str, int]:
    try:
        return parse_endpoint(text)
    except VerificationError as exc:
        raise SystemExit(
            f"--listen expects HOST:PORT (port 0 = OS-assigned): {exc}"
        ) from exc


def cmd_serve_store(args: argparse.Namespace) -> int:
    from repro.service.netstore import is_store_url
    from repro.service.server import StoreServer
    from repro.store import FileStore

    host, port = _parse_listen(args.listen)
    if args.store is not None and is_store_url(args.store):
        raise SystemExit(
            "serve-store fronts a directory, not another server:"
            f" --store {args.store} makes no sense"
        )
    store = FileStore(args.store or None)
    try:
        server = StoreServer(store, host, port, secret=args.auth)
    except OSError as exc:
        raise SystemExit(f"cannot bind {host}:{port}: {exc}") from exc
    bound_host, bound_port = server.address
    print(f"repro-store listening on {bound_host}:{bound_port}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.http import VerificationService

    host, port = _parse_listen(args.listen)
    if args.trace is not None:
        from repro.obs.trace import TRACER

        TRACER.enable()
    store = None
    if not args.no_store:
        from repro.service.netstore import NetworkStore, is_store_url
        from repro.store import FileStore

        if args.store is not None and is_store_url(args.store):
            store = NetworkStore.from_url(args.store,
                                          secret=args.store_auth)
        else:
            store = FileStore(args.store or None)
    service = VerificationService(
        store,
        store_refresh=args.store_refresh,
        store_subsume=args.store_subsume,
        secret=args.auth,
    )

    async def serve() -> None:
        bound_host, bound_port = await service.start(host, port)
        print(f"repro-serve listening on {bound_host}:{bound_port}",
              flush=True)
        await service.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        raise SystemExit(f"cannot bind {host}:{port}: {exc}") from exc
    finally:
        if args.trace is not None:
            import sys

            from repro.obs.export import write_chrome_trace
            from repro.obs.trace import TRACER

            TRACER.disable()
            spans = TRACER.drain()
            write_chrome_trace(args.trace, spans)
            print(f"[trace] {len(spans)} spans -> {args.trace}",
                  file=sys.stderr)
    return 0


def add_service_parsers(sub: argparse._SubParsersAction) -> None:
    """Register ``serve-store`` and ``serve`` on the root parser."""
    serve_store = sub.add_parser(
        "serve-store",
        help="serve a result store to a fleet over tcp://"
             " (point engines at it with --store tcp://HOST:PORT)",
    )
    serve_store.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="endpoint to bind (port 0 = OS-assigned; announced as"
             " 'listening on HOST:PORT')",
    )
    serve_store.add_argument(
        "--store", metavar="DIR", default=None,
        help="store root to serve (default ~/.cache/repro/store)",
    )
    serve_store.add_argument(
        "--auth", metavar="SECRET", default=None,
        help="require clients to answer an HMAC challenge with this"
             " shared secret (the secret never crosses the wire)",
    )

    serve = sub.add_parser(
        "serve",
        help="HTTP verification front end: POST spec files, stream"
             " progress events, serve warm requests from the store",
    )
    serve.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="endpoint to bind (port 0 = OS-assigned)",
    )
    serve.add_argument(
        "--store", metavar="DIR_OR_URL", default=None,
        help="result store to consult: a directory (default"
             " ~/.cache/repro/store) or tcp://HOST:PORT of a"
             " serve-store instance",
    )
    serve.add_argument(
        "--no-store", action="store_true",
        help="run every request cold (no result store)",
    )
    serve.add_argument(
        "--store-refresh", action="store_true",
        help="skip store lookups but store fresh results",
    )
    serve.add_argument(
        "--store-subsume", action="store_true",
        help="let a stored proved entry whose scope subsumes a request"
             " answer it (verdict-preserving, not byte-preserving)",
    )
    serve.add_argument(
        "--store-auth", metavar="SECRET", default=None,
        help="shared secret for a tcp:// store",
    )
    serve.add_argument(
        "--auth", metavar="SECRET", default=None,
        help="require 'Authorization: Bearer SECRET' on every POST",
    )
    serve.add_argument(
        "--trace", metavar="FILE", default=None,
        help="trace request handling and spec execution for the"
             " service's lifetime; the Chrome trace-event JSON is"
             " written to FILE at shutdown",
    )


SERVICE_COMMANDS = {
    "serve-store": cmd_serve_store,
    "serve": cmd_serve,
}
