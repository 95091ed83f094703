"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

A thin, scriptable wrapper over the library for the Fig-1 workflow:

* ``embed``   — watermark a CSV stream file;
* ``detect``  — detect a watermark in a (possibly transformed) CSV file;
* ``attack``  — apply a named transform/attack (for experimentation);
* ``info``    — stream statistics relevant to parameter tuning
  (measured η(σ, δ), extremes, subset sizes);
* ``list``    — enumerate every named component (encodings,
  transforms, attacks, generators, transports);
* ``hub``     — multi-tenant streaming: ``hub embed`` watermarks many
  CSV streams through one :class:`repro.hub.StreamHub` with durable
  checkpoints, ``hub resume`` recovers a crashed run from the store and
  completes it, ``hub status`` inspects a store's checkpoints;
* ``serve``   — expose StreamHub tenants over the framed TCP protocol
  (:mod:`repro.server`): credit-based flow control, durable per-tenant
  stores, graceful SIGTERM drain, ``--recover`` restart;
* ``remote``  — client side of ``serve``: ``remote embed`` / ``remote
  detect`` run the embed/detect workflows against a remote server with
  transparent reconnect-and-resume;
* ``status``  — query a serving endpoint's STATUS snapshot (server
  counters, per-tenant stream stats, metrics registry) over any
  transport;
* ``loadgen`` — churn load generator: N concurrent clients connect,
  push, crash and resume against a server (spawned in-process by
  default), reporting a latency histogram and verifying exactly-once
  delivery under churn;
* ``supervise`` — run ``repro serve`` as a supervised child process:
  non-zero exits restart it with ``--recover`` under exponential
  backoff (with a crash-loop circuit breaker), SIGTERM is forwarded
  for a clean drain (:mod:`repro.chaos.supervisor`).

``serve --chaos plan.json`` and ``loadgen --chaos plan.json`` inject
deterministic faults from a :class:`repro.chaos.FaultPlan` file
(server/store/process faults and client transport faults
respectively); ``remote`` and ``loadgen`` accept ``--retry-*`` flags
shaping the client's :class:`repro.chaos.RetryPolicy`.

Component names — encoding choices, attack/transform kinds — come from
the per-kind tables that :data:`repro.registry.REGISTRY` indexes.

Values are exchanged as single-column CSV (see ``repro.streams.io``);
the secret key is taken from ``--key`` or the ``REPRO_KEY`` environment
variable.  Streams must be pre-normalized into (-0.5, 0.5) unless
``--normalize lo:hi`` is given.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

import numpy as np

from repro.core.detector import detect_watermark
from repro.core.embedder import watermark_stream
from repro.core.extremes import average_subset_size, estimate_eta, find_major_extremes
from repro.core.params import WatermarkParams
from repro.errors import ReproError
from repro.registry import REGISTRY
from repro.streams.io import load_stream_csv, save_stream_csv
from repro.streams.normalize import Normalizer


def add_retry_flags(p: argparse.ArgumentParser) -> None:
    """The ``--retry-*`` knobs shared by ``remote`` and ``loadgen``.

    Defaults are ``None`` so :func:`_retry_policy` can tell "flag not
    given" (keep the client SDK's default policy) from an explicit
    value.
    """
    p.add_argument("--retry-attempts", type=int, default=None,
                   metavar="N",
                   help="dial attempts per reconnect cycle (default 40)")
    p.add_argument("--retry-base-delay", type=float, default=None,
                   metavar="SECONDS",
                   help="first backoff cap; doubles per attempt with "
                        "full jitter (default 0.05)")
    p.add_argument("--retry-max-delay", type=float, default=None,
                   metavar="SECONDS",
                   help="backoff ceiling (default 0.25)")
    p.add_argument("--retry-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="overall wall-clock budget per reconnect cycle "
                        "(default 30)")
    p.add_argument("--retry-op-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-operation read timeout; a server silent "
                        "longer counts as a lost connection "
                        "(default 30)")


def _retry_policy(args):
    """A :class:`repro.chaos.RetryPolicy` from the ``--retry-*`` flags
    given, or ``None`` when none was (the SDK default applies).  Fields
    whose flag was not given keep the SDK default's values."""
    given = {name: value
             for name in ("attempts", "base_delay", "max_delay",
                          "deadline", "op_timeout")
             if (value := getattr(args, f"retry_{name}", None)) is not None}
    if not given:
        return None
    from repro.chaos.retry import RetryPolicy
    return RetryPolicy(**given)


def add_endpoint_flags(p: argparse.ArgumentParser, *,
                       tenant: str = "default") -> None:
    """The ``--transport``/``--tenant`` flags of every command that
    dials a server (``status``, ``loadgen``, ``remote``)."""
    p.add_argument("--transport", default="tcp", metavar="NAME",
                   help="transport the server listens on (default 'tcp')")
    p.add_argument("--tenant", default=tenant,
                   help=f"tenant namespace (default {tenant!r})")


def _remote_client(args, host: str, port: int):
    """A connected :class:`repro.server.client.RemoteClient` built from
    the endpoint and ``--retry-*`` flags."""
    from repro.server.client import RemoteClient

    return RemoteClient(host, port, tenant=args.tenant,
                        transport=args.transport,
                        retry=_retry_policy(args))


def _fault_injector(args):
    """Build a :class:`repro.chaos.FaultInjector` from ``--chaos`` (and
    ``--chaos-log``), or ``None`` when chaos is off."""
    plan_path = getattr(args, "chaos", None)
    if plan_path is None:
        return None
    from repro.chaos import FaultInjector, FaultPlan
    return FaultInjector(FaultPlan.load(plan_path),
                         log_path=getattr(args, "chaos_log", None))


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resilient watermarking for sensor streams "
                    "(Sion/Atallah/Prabhakar, VLDB 2004 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_key: bool) -> None:
        p.add_argument("input", help="input CSV stream (one value per row)")
        if needs_key:
            p.add_argument("--key", default=os.environ.get("REPRO_KEY"),
                           help="secret key (default: $REPRO_KEY)")
        p.add_argument("--normalize", metavar="LO:HI", default=None,
                       help="physical range to normalize from, e.g. 0:35")
        p.add_argument("--params", metavar="JSON", default=None,
                       help='WatermarkParams overrides, e.g. '
                            '\'{"phi": 9, "delta": 0.01}\'')

    encodings = REGISTRY.names("encoding")

    embed = sub.add_parser("embed", help="watermark a stream file")
    add_common(embed, needs_key=True)
    embed.add_argument("output", help="output CSV path")
    embed.add_argument("--watermark", default="1",
                       help="payload: bit string or text (default '1')")
    embed.add_argument("--encoding", default="multihash", choices=encodings)

    detect = sub.add_parser("detect", help="detect a watermark")
    add_common(detect, needs_key=True)
    detect.add_argument("--bits", type=int, default=1,
                        help="payload length in bits (default 1)")
    detect.add_argument("--encoding", default="multihash", choices=encodings)
    detect.add_argument("--degree", type=float, default=1.0,
                        help="known transform degree rho (default 1)")
    detect.add_argument("--expect", default=None,
                        help="expected payload to score against")
    detect.add_argument("--workers", type=int, default=None,
                        help="processes for span-parallel detection "
                             "(vote buckets merge exactly; default serial)")
    detect.add_argument("--spans", type=int, default=None,
                        help="contiguous stream spans to scan "
                             "independently (default: one per worker)")

    attack = sub.add_parser("attack", help="apply a transform/attack")
    add_common(attack, needs_key=False)
    attack.add_argument("output", help="output CSV path")
    attack.add_argument("--kind", required=True, metavar="NAME",
                        help="attack or transform name "
                             "(see `repro list`); 'sample' accepts "
                             "--degree, 'epsilon' accepts --tau/--epsilon, "
                             "...")
    attack.add_argument("--degree", type=int, default=2,
                        help="degree for sample/summarize")
    attack.add_argument("--length", type=int, default=None,
                        help="segment length (segment)")
    attack.add_argument("--tau", type=float, default=0.1,
                        help="altered fraction (epsilon)")
    attack.add_argument("--epsilon", type=float, default=0.1,
                        help="alteration amplitude (epsilon)")
    attack.add_argument("--fraction", type=float, default=None,
                        help="inserted fraction (additive) or kept "
                             "fraction (segment)")
    attack.add_argument("--scale", type=float, default=1.0,
                        help="multiplier (linear)")
    attack.add_argument("--offset", type=float, default=0.0,
                        help="additive shift (linear)")
    attack.add_argument("--seed", type=int, default=None)

    info = sub.add_parser("info", help="stream statistics for tuning")
    add_common(info, needs_key=False)

    list_parser = sub.add_parser(
        "list", help="enumerate the named components")
    list_parser.add_argument("--kind", default=None,
                             choices=REGISTRY.KINDS,
                             help="restrict to one component kind")
    list_parser.add_argument("--json", action="store_true",
                             help="machine-readable output")

    hub = sub.add_parser(
        "hub", help="multi-tenant streaming hub with durable checkpoints")
    hub_sub = hub.add_subparsers(dest="hub_command", required=True)

    def add_hub_streams(p: argparse.ArgumentParser) -> None:
        p.add_argument("store", help="checkpoint store directory")
        p.add_argument("--stream", action="append", required=True,
                       metavar="ID=IN.csv=OUT.csv", dest="streams",
                       help="one stream: id, input CSV, output CSV "
                            "(repeatable)")
        p.add_argument("--key", default=os.environ.get("REPRO_KEY"),
                       help="secret key shared by the listed streams "
                            "(default: $REPRO_KEY)")
        p.add_argument("--chunk", type=int, default=500,
                       help="items per push (default 500)")
        p.add_argument("--params", metavar="JSON", default=None,
                       help="WatermarkParams overrides")

    hub_embed = hub_sub.add_parser(
        "embed", help="watermark many streams, checkpointing to a store")
    add_hub_streams(hub_embed)
    hub_embed.add_argument("--watermark", default="1",
                           help="payload embedded in every stream "
                                "(default '1')")
    hub_embed.add_argument("--encoding", default="multihash",
                           choices=encodings)
    hub_embed.add_argument("--checkpoint-every", type=int, default=1,
                           help="checkpoint a stream every N pushes "
                                "(default 1)")
    hub_embed.add_argument("--max-live", type=int, default=None,
                           help="LRU-evict idle sessions beyond this "
                                "count to the store")
    hub_embed.add_argument("--stop-after", type=int, default=None,
                           metavar="BATCHES",
                           help="stop (simulating a crash) after this "
                                "many pushes, leaving the store as the "
                                "only survivor")

    hub_resume = hub_sub.add_parser(
        "resume", help="recover a crashed hub run from its store and "
                       "finish it")
    add_hub_streams(hub_resume)

    hub_status = hub_sub.add_parser(
        "status", help="inspect a checkpoint store")
    hub_status.add_argument("store", help="checkpoint store directory")
    hub_status.add_argument("--json", action="store_true",
                            help="machine-readable output: one JSON "
                                 "object per stream per line")

    serve = sub.add_parser(
        "serve", help="serve StreamHub tenants over a framed transport")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7707,
                       help="bind port; 0 picks a free one (default 7707)")
    serve.add_argument("--transport", default="tcp", metavar="NAME",
                       help="transport to listen on "
                            "(see `repro list`; default 'tcp')")
    serve.add_argument("--store", default=None,
                       help="root directory for durable per-tenant "
                            "checkpoint stores (default: in-memory)")
    serve.add_argument("--credits", type=int, default=4,
                       help="outstanding PUSH frames granted per stream "
                            "(default 4)")
    serve.add_argument("--checkpoint-every", type=int, default=1,
                       help="checkpoint a stream every N pushes "
                            "(default 1)")
    serve.add_argument("--checkpoint-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="also checkpoint all streams on this "
                            "wall-clock period")
    serve.add_argument("--max-live", type=int, default=None,
                       help="LRU-evict idle sessions beyond this count")
    serve.add_argument("--recover", action="store_true",
                       help="start over a non-empty store and resume its "
                            "checkpointed streams as clients reconnect")
    serve.add_argument("--status-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="log a JSON status snapshot line on this "
                            "wall-clock period")
    serve.add_argument("--json", action="store_true",
                       help="strict machine-readable lifecycle output: "
                            "one JSON object per line, each tagged with "
                            "an 'event' field (ready/status/drained)")
    serve.add_argument("--chaos", metavar="PLAN.json", default=None,
                       help="inject faults per this fault-plan file "
                            "(repro.chaos.FaultPlan): server transport "
                            "and store faults, plus scheduled process "
                            "crashes")
    serve.add_argument("--chaos-log", metavar="PATH", default=None,
                       help="append every injected fault as a JSON "
                            "line here (the chaos-smoke CI artifact)")

    supervise = sub.add_parser(
        "supervise",
        help="run `repro serve` as a supervised child: restart with "
             "--recover on non-zero exit (backoff + crash-loop circuit "
             "breaker), forward SIGTERM for a clean drain")
    supervise.add_argument("--max-restarts", type=int, default=5,
                           help="restarts tolerated within "
                                "--restart-window before giving up "
                                "with exit code 3 (default 5)")
    supervise.add_argument("--restart-window", type=float, default=60.0,
                           metavar="SECONDS",
                           help="sliding window for the crash-loop "
                                "circuit breaker (default 60)")
    supervise.add_argument("--backoff-base", type=float, default=0.5,
                           metavar="SECONDS",
                           help="restart delay after the first failure; "
                                "doubles per consecutive failure "
                                "(default 0.5)")
    supervise.add_argument("--backoff-max", type=float, default=5.0,
                           metavar="SECONDS",
                           help="restart delay ceiling (default 5)")
    supervise.add_argument("serve_args", nargs=argparse.REMAINDER,
                           metavar="-- SERVE_ARGS",
                           help="arguments passed to `repro serve` "
                                "(prefix with --), e.g. "
                                "-- --port 7707 --store hub-store")

    status_parser = sub.add_parser(
        "status", help="query a serving endpoint's STATUS snapshot")
    status_parser.add_argument("address", metavar="HOST:PORT",
                               help="a repro serve endpoint, "
                                    "e.g. 127.0.0.1:7707")
    add_endpoint_flags(status_parser)
    status_parser.add_argument("--json", action="store_true",
                               help="compact single-line output "
                                    "(default: indented)")

    loadgen = sub.add_parser(
        "loadgen", help="churn load generator: N clients connect, push, "
                        "crash and resume against a server")
    loadgen.add_argument("--workers", type=int, default=8,
                         help="concurrent client workers (default 8)")
    loadgen.add_argument("--pushes", type=int, default=12,
                         help="chunks each worker feeds (default 12)")
    loadgen.add_argument("--chunk", type=int, default=256,
                         help="items per chunk (default 256)")
    loadgen.add_argument("--crash-every", type=int, default=3,
                         help="crash each worker's transport every N "
                              "pushes; 0 disables churn (default 3)")
    loadgen.add_argument("--host", default=None,
                         help="target server address (default: spawn an "
                              "in-process server on a free port)")
    loadgen.add_argument("--port", type=int, default=None,
                         help="target server port (requires --host)")
    add_endpoint_flags(loadgen, tenant="loadgen")
    loadgen.add_argument("--verify-bits", action="store_true",
                         help="also require outputs bit-identical to an "
                              "uninterrupted local embed")
    loadgen.add_argument("--out", metavar="PATH", default=None,
                         help="also write the summary JSON here "
                              "(the CI histogram artifact)")
    loadgen.add_argument("--chaos", metavar="PLAN.json", default=None,
                         help="wrap the dialing transport with "
                              "client-side fault injection per this "
                              "fault-plan file")
    add_retry_flags(loadgen)

    remote = sub.add_parser(
        "remote", help="drive a repro serve endpoint as a client")
    remote_sub = remote.add_subparsers(dest="remote_command", required=True)

    def add_remote_common(p: argparse.ArgumentParser) -> None:
        add_common(p, needs_key=True)
        p.add_argument("--host", default="127.0.0.1",
                       help="server address (default 127.0.0.1)")
        p.add_argument("--port", type=int, required=True,
                       help="server port")
        add_endpoint_flags(p)
        p.add_argument("--stream-id", required=True,
                       help="stream id on the server")
        p.add_argument("--chunk", type=int, default=500,
                       help="items per feed (default 500)")
        p.add_argument("--encoding", default="multihash",
                       choices=encodings)
        add_retry_flags(p)

    remote_embed = remote_sub.add_parser(
        "embed", help="watermark a CSV stream through a remote server")
    add_remote_common(remote_embed)
    remote_embed.add_argument("output", help="output CSV path")
    remote_embed.add_argument("--watermark", default="1",
                              help="payload: bit string or text "
                                   "(default '1')")

    remote_detect = remote_sub.add_parser(
        "detect", help="detect a watermark through a remote server")
    add_remote_common(remote_detect)
    remote_detect.add_argument("--bits", type=int, default=1,
                               help="payload length in bits (default 1)")
    remote_detect.add_argument("--degree", type=float, default=1.0,
                               help="known transform degree rho "
                                    "(default 1)")
    remote_detect.add_argument("--expect", default=None,
                               help="expected payload to score against")
    return parser


def _load(args) -> np.ndarray:
    values = load_stream_csv(args.input)
    if args.normalize:
        low, high = (float(x) for x in args.normalize.split(":"))
        values = Normalizer(low=low, high=high).normalize(values)
    return values


def _denormalize(args, values: np.ndarray) -> np.ndarray:
    """Map output values back to physical units when --normalize is on."""
    if not args.normalize or not len(values):
        return values
    low, high = (float(x) for x in args.normalize.split(":"))
    return Normalizer(low=low, high=high).denormalize(values)


def _params(args) -> WatermarkParams:
    if getattr(args, "params", None):
        overrides = json.loads(args.params)
        return WatermarkParams().with_updates(**overrides)
    return WatermarkParams()


def _require_key(args) -> bytes:
    if not args.key:
        raise ReproError("no key: pass --key or set $REPRO_KEY")
    return args.key.encode("utf-8")


def _cmd_embed(args) -> int:
    values = _load(args)
    params = _params(args)
    marked, report = watermark_stream(values, args.watermark,
                                      _require_key(args), params=params,
                                      encoding=args.encoding)
    marked = _denormalize(args, marked)
    save_stream_csv(args.output, marked)
    print(json.dumps(report.summary(), indent=2))
    return 0


def _cmd_detect(args) -> int:
    values = _load(args)
    params = _params(args)
    result = detect_watermark(values, args.bits, _require_key(args),
                              params=params, encoding=args.encoding,
                              transform_degree=args.degree,
                              workers=args.workers, spans=args.spans)
    return _print_verdict(args, result)


def _print_verdict(args, result, **context) -> int:
    """Print a detection verdict as JSON (``context`` fields first) and
    return the exit code of ``detect`` and ``remote detect``."""
    payload = {
        **context,
        "votes": [result.votes(i) for i in range(result.wm_length)],
        "bias": [result.bias(i) for i in range(result.wm_length)],
        "confidence_bit0": result.confidence(0),
        "exact_fp_bit0": result.exact_false_positive(0),
        "estimate": ["1" if b else "0" if b is not None else "?"
                     for b in result.wm_estimate()],
    }
    if args.expect is not None:
        payload["match_fraction"] = result.match_fraction(args.expect)
    print(json.dumps(payload, indent=2))
    return 0 if result.total_bias > 0 else 1


def _cmd_attack(args) -> int:
    values = _load(args)
    # Transforms shadow attacks on a name collision, so one name always
    # means one component.
    component_kind, builder = REGISTRY.find(args.kind,
                                            kinds=("transform", "attack"))
    # Offer every CLI tuning flag; the builder takes what it understands.
    candidates = {
        "degree": args.degree,
        "length": args.length,
        "tau": args.tau,
        "epsilon": args.epsilon,
        "fraction": args.fraction,
        "scale": args.scale,
        "offset": args.offset,
        "rng": args.seed,
    }
    accepted = inspect.signature(builder).parameters
    # Unset flags (None) are dropped so every builder keeps its own
    # default (e.g. segment's "half the stream").
    options = {name: value for name, value in candidates.items()
               if name in accepted and value is not None}
    out = _denormalize(args, np.asarray(builder(**options)(values)))
    save_stream_csv(args.output, out)
    print(json.dumps({"kind": args.kind,
                      "component_kind": component_kind,
                      "input_items": len(values),
                      "output_items": len(out)}, indent=2))
    return 0


def _cmd_info(args) -> int:
    values = _load(args)
    params = _params(args)
    majors = find_major_extremes(values, params.prominence, params.delta,
                                 params.sigma, params.majority_relaxation)
    print(json.dumps({
        "items": len(values),
        "value_range": [float(values.min()), float(values.max())],
        "major_extremes": len(majors),
        "eta_estimate": estimate_eta(values, params.prominence,
                                     params.delta, params.sigma,
                                     params.majority_relaxation),
        "average_subset_size": average_subset_size(values,
                                                   params.prominence,
                                                   params.delta),
        "label_warmup_extremes": params.label_history,
    }, indent=2))
    return 0


def _cmd_list(args) -> int:
    snapshot = REGISTRY.snapshot()
    if args.kind:
        snapshot = {args.kind: snapshot[args.kind]}
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0
    for kind, components in snapshot.items():
        print(f"{kind}s ({len(components)}):")
        for name, description in components.items():
            text = f"  {name}"
            if description:
                text += f" — {description}"
            print(text)
    return 0


# ----------------------------------------------------------------------
# hub subcommands
# ----------------------------------------------------------------------
def _hub_specs(args) -> "list[tuple[str, str, str]]":
    """Parse repeated ``--stream ID=IN.csv=OUT.csv`` specs."""
    specs = []
    for raw in args.streams:
        parts = raw.split("=", 2)
        if len(parts) != 3 or not all(parts):
            raise ReproError(
                f"bad --stream spec {raw!r}; expected ID=IN.csv=OUT.csv"
            )
        specs.append((parts[0], parts[1], parts[2]))
    if len({sid for sid, _, _ in specs}) != len(specs):
        raise ReproError("duplicate stream ids in --stream specs")
    return specs


def _hub_summary(hub, specs, written, stopped_early: bool) -> dict:
    rows = {}
    for stream_id, _, out_path in specs:
        stats = hub.stats(stream_id)
        rows[stream_id] = {
            "items_in": stats["items_in"],
            "items_out": stats["items_out"],
            "checkpoints": stats["checkpoints"],
            "finished": stats["finished"],
            "output": out_path if written[stream_id] else None,
            "written_items": written[stream_id],
        }
    return {"streams": rows, "stopped_early": stopped_early}


def _write_hub_outputs(specs, outputs) -> dict:
    """Write each stream's released items; streams with no output yet
    (window-delayed or never pushed) get no file, not an empty CSV the
    IO layer would refuse to read back."""
    written = {}
    for stream_id, _, out_path in specs:
        pieces = [piece for piece in outputs[stream_id] if len(piece)]
        if pieces:
            out = np.concatenate(pieces)
            save_stream_csv(out_path, out)
            written[stream_id] = len(out)
        else:
            written[stream_id] = 0
    return written


def _cmd_hub_embed(args) -> int:
    from repro.hub import StreamHub
    from repro.stores import DirectoryCheckpointStore

    specs = _hub_specs(args)
    key = _require_key(args)
    params = _params(args)
    store = DirectoryCheckpointStore(args.store)
    hub = StreamHub(store=store, checkpoint_every=args.checkpoint_every,
                    max_live_sessions=args.max_live)
    inputs = {}
    for stream_id, in_path, _ in specs:
        hub.protect(stream_id, args.watermark, key, params=params,
                    encoding=args.encoding)
        inputs[stream_id] = load_stream_csv(in_path)

    outputs = {stream_id: [] for stream_id, _, _ in specs}
    stopped_early = False
    pushes = 0
    longest = max(len(values) for values in inputs.values())
    for start in range(0, longest, args.chunk):
        for stream_id, _, _ in specs:
            chunk = inputs[stream_id][start:start + args.chunk]
            if not len(chunk):
                continue
            outputs[stream_id].append(hub.push(stream_id, chunk))
            pushes += 1
            if args.stop_after is not None and pushes >= args.stop_after:
                stopped_early = True
                break
        if stopped_early:
            break
    if stopped_early:
        # --stop-after is a *controlled* stop: checkpoint everything so
        # the store agrees with every item written below — otherwise
        # pushes made after the last cadence checkpoint would be
        # replayed by `hub resume` and duplicated in the output.
        hub.checkpoint_all()
    else:
        for stream_id, tail in hub.finish_all().items():
            outputs[stream_id].append(tail)

    written = _write_hub_outputs(specs, outputs)
    print(json.dumps(_hub_summary(hub, specs, written, stopped_early),
                     indent=2))
    return 0


def _cmd_hub_resume(args) -> int:
    from repro.hub import StreamHub
    from repro.stores import DirectoryCheckpointStore

    specs = _hub_specs(args)
    key = _require_key(args)
    store = DirectoryCheckpointStore(args.store, create=False)
    hub = StreamHub.recover(store, lambda stream_id: key,
                            checkpoint_every=1)
    outputs = {stream_id: [] for stream_id, _, _ in specs}
    for stream_id, in_path, _ in specs:
        if stream_id not in hub:
            raise ReproError(
                f"store {args.store} holds no checkpoint for stream "
                f"{stream_id!r}"
            )
        values = load_stream_csv(in_path)
        # items_in is the checkpointed ingest offset: replay the rest.
        offset = hub.stats(stream_id)["items_in"]
        for start in range(offset, len(values), args.chunk):
            outputs[stream_id].append(
                hub.push(stream_id, values[start:start + args.chunk]))
        if not hub.stats(stream_id)["finished"]:
            outputs[stream_id].append(hub.finish(stream_id))

    written = _write_hub_outputs(specs, outputs)
    print(json.dumps(_hub_summary(hub, specs, written, False), indent=2))
    return 0


def _cmd_hub_status(args) -> int:
    from repro.hub import store_summary
    from repro.stores import DirectoryCheckpointStore

    store = DirectoryCheckpointStore(args.store, create=False)
    rows = store_summary(store)
    if args.json:
        # One JSON object per stream per line — loadgen/CI parse these
        # without scraping; an empty store emits no lines and exits 0.
        for row in rows:
            print(json.dumps(row))
        return 0
    if not rows:
        # An empty store is a normal operational state (fresh start, or
        # every stream finished and was dropped) — say so instead of
        # printing a bare empty table.
        print(f"store {args.store} is empty: no stream checkpoints")
        return 0
    print(json.dumps({"store": args.store, "streams": rows}, indent=2))
    return 0


_HUB_COMMANDS = {
    "embed": _cmd_hub_embed,
    "resume": _cmd_hub_resume,
    "status": _cmd_hub_status,
}


def _cmd_hub(args) -> int:
    return _HUB_COMMANDS[args.hub_command](args)


# ----------------------------------------------------------------------
# network serving
# ----------------------------------------------------------------------
def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.server.service import StreamService

    def emit(event: str, payload: dict) -> None:
        # Always one JSON object per line; --json additionally tags
        # each with a stable 'event' discriminator so log consumers can
        # route ready/status/drained lines without guessing by keys.
        if args.json:
            payload = {"event": event, **payload}
        print(json.dumps(payload), flush=True)

    injector = _fault_injector(args)

    async def run() -> None:
        service = StreamService(
            host=args.host, port=args.port, store_path=args.store,
            credits=args.credits,
            transport=args.transport,
            checkpoint_every=args.checkpoint_every,
            checkpoint_interval=args.checkpoint_interval,
            max_live_sessions=args.max_live, recover=args.recover,
            status_interval=args.status_interval,
            status_sink=lambda snapshot:
            emit("status", {"status": snapshot}),
            fault_injector=injector)
        host, port = await service.start()
        recoverable = service.recoverable() if args.recover else {}
        # One machine-readable ready line: scripts parse the bound port
        # (required with --port 0) before dialing in, and operators see
        # what the server actually speaks.
        emit("ready", {
            "serving": {"host": host, "port": port,
                        "transport": args.transport},
            "store": args.store,
            "recoverable": {tenant: len(ids)
                            for tenant, ids in recoverable.items()},
        })
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(service.drain()))
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await service.serve_until_drained()
        emit("drained", {"drained": True, "pushes": service.pushes,
                         "transport": args.transport})

    asyncio.run(run())
    return 0


def _remote_feed(args, session, values) -> "list[np.ndarray]":
    pieces = []
    for start in range(0, len(values), args.chunk):
        pieces.append(session.feed(values[start:start + args.chunk]))
    pieces.append(session.finish())
    return pieces


def _cmd_remote_embed(args) -> int:
    values = _load(args)
    with _remote_client(args, args.host, args.port) as client:
        session = client.protect(args.stream_id, args.watermark,
                                 _require_key(args), params=_params(args),
                                 encoding=args.encoding)
        pieces = _remote_feed(args, session, values)
        reconnects = client.reconnects
    pieces = [piece for piece in pieces if len(piece)]
    marked = _denormalize(args, np.concatenate(pieces) if pieces
                          else np.empty(0, dtype=np.float64))
    # An empty stream yields no output file (the CSV layer refuses to
    # read empty files back), matching the hub commands.
    if len(marked):
        save_stream_csv(args.output, marked)
    print(json.dumps({"stream_id": args.stream_id,
                      "items_in": len(values),
                      "items_out": len(marked),
                      "output": args.output if len(marked) else None,
                      "reconnects": reconnects}, indent=2))
    return 0


def _cmd_remote_detect(args) -> int:
    values = _load(args)
    with _remote_client(args, args.host, args.port) as client:
        session = client.detect(args.stream_id, args.bits,
                                _require_key(args), params=_params(args),
                                encoding=args.encoding,
                                transform_degree=args.degree)
        _remote_feed(args, session, values)
        result = session.result()
        reconnects = client.reconnects
    return _print_verdict(args, result, stream_id=args.stream_id,
                          reconnects=reconnects)


_REMOTE_COMMANDS = {
    "embed": _cmd_remote_embed,
    "detect": _cmd_remote_detect,
}


def _cmd_remote(args) -> int:
    return _REMOTE_COMMANDS[args.remote_command](args)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def _cmd_status(args) -> int:
    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(
            f"bad address {args.address!r}; expected HOST:PORT")
    with _remote_client(args, host, int(port)) as client:
        snapshot = client.status()
    print(json.dumps(snapshot,
                     indent=None if args.json else 2))
    return 0


def _cmd_loadgen(args) -> int:
    from repro.obs.loadgen import run_loadgen

    if (args.host is None) != (args.port is None):
        raise ReproError("--host and --port go together (omit both to "
                         "spawn an in-process server)")
    summary = run_loadgen(workers=args.workers, pushes=args.pushes,
                          chunk=args.chunk, crash_every=args.crash_every,
                          host=args.host, port=args.port,
                          transport=args.transport,
                          tenant=args.tenant,
                          verify_bits=args.verify_bits,
                          retry=_retry_policy(args),
                          fault_injector=_fault_injector(args))
    print(json.dumps(summary, indent=2))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    # Churn must not bend exactly-once: any lost/duplicated item or
    # crashed worker fails the run (the CI loadgen-smoke gate).
    return 1 if summary["verify_failures"] or summary["worker_errors"] \
        else 0


def _cmd_supervise(args) -> int:
    from repro.chaos.supervisor import supervise_serve

    serve_args = list(args.serve_args)
    # argparse.REMAINDER keeps the literal "--" separator; drop it.
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    supervisor = supervise_serve(serve_args,
                                 max_restarts=args.max_restarts,
                                 restart_window=args.restart_window,
                                 backoff_base=args.backoff_base,
                                 backoff_max=args.backoff_max)
    return supervisor.run()


_COMMANDS = {
    "embed": _cmd_embed,
    "detect": _cmd_detect,
    "attack": _cmd_attack,
    "info": _cmd_info,
    "list": _cmd_list,
    "hub": _cmd_hub,
    "serve": _cmd_serve,
    "supervise": _cmd_supervise,
    "remote": _cmd_remote,
    "status": _cmd_status,
    "loadgen": _cmd_loadgen,
}


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
