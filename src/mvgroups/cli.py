"""Command-line interface.

Exit codes: 0 success or affirmative answer, 1 well-formed negative
(axioms fail, not isomorphic, not a coset group), 2 usage error,
3 invalid input data, 4 resource cap exceeded.  Internal consistency
failures and any other unexpected exception (library bugs) exit 70 with
one line on stderr.  All output is deterministic for a given argv and
input.  Run as a program (run), the CLI ends on SIGPIPE when its output
pipe is closed, printing nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import signal
import sys

from . import algebra, classify, core, srg
from .errors import CapError, InputError, InternalError


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


@contextlib.contextmanager
def _output(path: str):
    """The text stream for path ('-' = stdout), opened on entry."""
    if path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _load_mvg(path: str) -> core.MultivaluedGroup:
    return core.loads(_read(path))


def _load_mvg_within(path: str, cap: int) -> core.MultivaluedGroup:
    group = _load_mvg(path)
    if group.order > cap:
        raise CapError(f"group order {group.order} exceeds the cap {cap}")
    return group


def _load_graph(path: str, cap: int):
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return srg.graph_loads(text, cap)
    return srg.graph_from_edge_list(text, cap)


def _json_line(data) -> str:
    return json.dumps(data) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state
    between calls, and in-process callers run main once per job."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--cap", type=int, default=None, help="override all size caps")
    common.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")

    parser = argparse.ArgumentParser(
        prog="mvgroups",
        description="Finite multivalued groups: build, verify, and classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="verify the axioms of a multivalued group file"
    )
    p_verify.add_argument("file")

    p_iso = sub.add_parser(
        "iso", parents=[common], help="test two multivalued group files for isomorphism"
    )
    p_iso.add_argument("file1")
    p_iso.add_argument("file2")

    p_build = sub.add_parser("build", help="build groups and graphs")
    bsub = p_build.add_subparsers(dest="builder", required=True)

    p_coset = bsub.add_parser("coset", parents=[common], help="coset group of an automorphism action")
    p_coset.add_argument("--group", required=True, help="group file (grp-v1)")
    p_coset.add_argument("--action", required=True, help="action generators file (act-v1)")
    p_coset.add_argument(
        "--check-representatives",
        action="store_true",
        help="verify multiplicities over every representative pair",
    )

    p_xk = bsub.add_parser("xk", parents=[common], help="the (2k+1)-valued swap group")
    p_xk.add_argument("k", type=int)

    p_t1 = bsub.add_parser("type1", parents=[common], help="order-3 group with both elements self-inverse")
    for name in ("n", "m1", "m2", "a"):
        p_t1.add_argument(name, type=int)

    p_t2 = bsub.add_parser("type2", parents=[common], help="order-3 group with swapped inverses")
    p_t2.add_argument("n", type=int)
    p_t2.add_argument("a", type=int)

    p_srg = bsub.add_parser("srg", parents=[common], help="order-3 group of a strongly regular parameter set")
    for name in ("v", "k", "lam", "mu"):
        p_srg.add_argument(name, type=int)

    p_graph = bsub.add_parser("graph", parents=[common], help="build a named graph family")
    p_graph.add_argument("name", choices=list(_GRAPH_FAMILIES))
    p_graph.add_argument("args", nargs="*", help="family arguments")

    p_cls = sub.add_parser("classify", parents=[common], help="decide whether an order-3 group is a coset group")
    group = p_cls.add_mutually_exclusive_group(required=True)
    group.add_argument("--sym", nargs=4, type=int, metavar=("N", "M1", "M2", "A"))
    group.add_argument("--swap", nargs=2, type=int, metavar=("N", "A"))
    group.add_argument("--file")

    p_enum = sub.add_parser("enumerate", parents=[common], help="enumerate the attainable parameter catalogue")
    p_enum.add_argument("--vmax", type=int, required=True)
    p_enum.add_argument("--collisions", action="store_true", help="also report parameter collisions")
    p_enum.add_argument("--csv", action="store_true", help="emit the catalogue as CSV")

    return parser


def _polar(cap, q, e, eps_text):
    if eps_text in ("+", "plus", "+1"):
        eps = 1
    elif eps_text in ("-", "minus", "-1"):
        eps = -1
    else:
        raise InputError(f"EPS must be '+' or '-', got {eps_text!r}")
    return srg.affine_polar(q, e, eps, cap=cap)


def _complement(cap, path):
    return srg.complement(_load_graph(path, cap))


# Each `build graph` family: its arguments, then its builder, called with
# the cap and the arguments.  EPS and FILE are passed as text, every
# other argument as an integer.
_GRAPH_FAMILIES = {
    "paley": ("Q", lambda cap, q: srg.paley_graph(srg.graph_field(q, cap=cap))),
    "tournament": ("Q", lambda cap, q: srg.paley_tournament(srg.graph_field(q, cap=cap))),
    "cliques": ("P T S", lambda cap, p, t, s: srg.clique_union(p, t, s, cap=cap)),
    "grid": ("Q", lambda cap, q: srg.grid_graph(q, cap=cap)),
    "vls": ("P C T", lambda cap, p, c, t: srg.vanlint_schrijver(p, c, t, cap=cap)),
    "polar": ("Q E EPS", _polar),
    "polar-plus-comp": ("E", lambda cap, e: srg.affine_polar_plus_complement(e, cap=cap)),
    "bilinear": ("Q E", lambda cap, q, e: srg.bilinear_forms_graph(q, e, cap=cap)),
    "alternating": ("Q", lambda cap, q: srg.alternating_forms_graph(q, cap=cap)),
    "complement": ("FILE", _complement),
}


def _build_graph(args, cap: int):
    arguments, build = _GRAPH_FAMILIES[args.name]
    usage = f"{args.name} {arguments}"
    names = arguments.split()
    if len(args.args) != len(names):
        raise InputError(f"expected {usage}")
    try:
        values = [raw if name in ("EPS", "FILE") else int(raw) for name, raw in zip(names, args.args)]
    except ValueError:
        raise InputError(f"expected integers: {usage}") from None
    return build(cap, *values)


_REPORT_ROWS = (
    ("associative", "associative"),
    ("has_identity", "identity"),
    ("has_inverses", "inverses"),
    ("involutive", "involutive"),
    ("reciprocity_holds", "reciprocity"),
)


def _report_human(report: core.AxiomReport) -> str:
    lines = []
    for attr, label in _REPORT_ROWS:
        value = getattr(report, attr)
        text = "ok" if value else ("FAIL" if value is False else "skipped")
        lines.append(f"{label:<12} {text}")
    for axiom, witness in report.counterexamples[:20]:
        lines.append(f"counterexample {axiom}: {witness}")
    extra = len(report.counterexamples) - 20
    if extra > 0:
        lines.append(f"... and {extra} more counterexamples")
    return "\n".join(lines) + "\n"


def _report_json(report: core.AxiomReport) -> dict:
    data = {attr: getattr(report, attr) for attr, _ in _REPORT_ROWS}
    data["counterexamples"] = [
        {"axiom": axiom, "witness": list(witness)} for axiom, witness in report.counterexamples
    ]
    return data


def _cmd_verify(args, cap) -> int:
    cap = cap if cap is not None else algebra.GROUP_CAP
    group = _load_mvg_within(args.file, cap)
    report = core.verify_all(group)
    if args.json:
        _write(args.output, _json_line(_report_json(report)))
    else:
        _write(args.output, _report_human(report))
    return 0 if report.ok else 1


def _cmd_iso(args, cap) -> int:
    cap = cap if cap is not None else algebra.GROUP_CAP
    g1 = _load_mvg_within(args.file1, cap)
    g2 = _load_mvg_within(args.file2, cap)
    bijection = core.are_isomorphic(g1, g2)
    if args.json:
        data = {"isomorphic": bijection is not None}
        if bijection is not None:
            data["bijection"] = list(bijection)
        _write(args.output, _json_line(data))
    elif bijection is None:
        _write(args.output, "not isomorphic\n")
    else:
        mapping = ", ".join(
            f"{g1.names[i]}->{g2.names[j]}" for i, j in enumerate(bijection)
        )
        _write(args.output, f"isomorphic: {mapping}\n")
    return 0 if bijection is not None else 1


def _cmd_build(args, cap) -> int:
    graph_cap = cap if cap is not None else srg.GRAPH_CAP
    action_cap = cap if cap is not None else algebra.ACTION_CAP
    if args.builder == "graph":
        graph = _build_graph(args, graph_cap)
        _write(args.output, srg.graph_dumps(graph))
        return 0
    if args.builder == "coset":
        group = algebra.group_loads(_read(args.group), cap if cap is not None else algebra.GROUP_CAP)
        generators = algebra.generators_loads(_read(args.action))
        action = algebra.close_action(group, generators, cap=action_cap)
        result = algebra.coset_group(group, action, check_representatives=args.check_representatives)
    elif args.builder == "xk":
        result = core.build_xk(args.k)
    elif args.builder == "type1":
        result = core.build_type1(args.n, args.m1, args.m2, args.a)
    elif args.builder == "type2":
        result = core.build_type2(args.n, args.a)
    else:  # srg
        srg_cap = cap if cap is not None else classify.CLASSIFY_CAP
        if args.v > srg_cap:
            raise CapError(f"v = {args.v} exceeds the cap {srg_cap}")
        result = srg.mvgroup_from_params(srg.SrgParams(args.v, args.k, args.lam, args.mu))
    _write(args.output, core.dumps(result))
    return 0


def _cmd_classify(args, cap) -> int:
    cap = cap if cap is not None else classify.CLASSIFY_CAP
    if args.file is not None:
        group = _load_mvg(args.file)
    elif args.sym is not None:
        group = core.build_type1(*args.sym)
    else:
        group = core.build_type2(*args.swap)
    verdict = classify.classify_order3(group, cap=cap)
    if args.json:
        _write(args.output, _json_line(classify.verdict_to_json_dict(verdict)))
    else:
        lines = [f"coset: {'yes' if verdict.coset else 'no'}"]
        if verdict.kind == "xk":
            lines.append(f"kind: swap family, k={verdict.k} (4k+3={4 * verdict.k + 3})")
        elif verdict.kind == "srg":
            lines.append(f"kind: parameter family {verdict.family.family} ({verdict.family.witness_str()})")
            if len(verdict.matches) > 1:
                others = ", ".join(m.family for m in verdict.matches[1:])
                lines.append(f"also matches: {others}")
        else:
            lines.append(f"reason: {verdict.reason}")
        if verdict.derived is not None:
            lines.append("derived parameters: (v,k,lambda,mu) = ({}, {}, {}, {})".format(*verdict.derived))
        _write(args.output, "\n".join(lines) + "\n")
    return 0 if verdict.coset else 1


def _cmd_enumerate(args, cap) -> int:
    cap = cap if cap is not None else classify.ENUMERATE_CAP
    blocks = classify._catalogue_blocks(args.vmax, cap)  # refuses before the output is opened
    form = "json" if args.json else "csv" if args.csv else "table"
    with _output(args.output) as out:
        classify.write_catalogue(out, blocks, form, args.collisions)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "verify":
            return _cmd_verify(args, args.cap)
        if args.command == "iso":
            return _cmd_iso(args, args.cap)
        if args.command == "build":
            return _cmd_build(args, args.cap)
        if args.command == "classify":
            return _cmd_classify(args, args.cap)
        if args.command == "enumerate":
            return _cmd_enumerate(args, args.cap)
        raise InputError(f"unknown command {args.command!r}")
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 70
    except Exception as exc:  # a library bug: one line, not a traceback
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 70


def run() -> None:
    """The console entry: main, with the default action for SIGPIPE
    where the platform has it, so that a closed output pipe ends the
    process silently, as it ends other filters."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    run()
