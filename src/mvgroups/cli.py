"""Command-line interface.

Exit codes: 0 success or affirmative answer, 1 well-formed negative
(axioms fail, not isomorphic, not a coset group), 2 usage error,
3 invalid input data, 4 resource cap exceeded.  Internal consistency
failures (library bugs) exit 70.  All output is deterministic for a
given argv and input.
"""

from __future__ import annotations

import argparse
import json
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


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_mvg(path: str) -> core.MultivaluedGroup:
    return core.loads(_read(path))


def _load_graph(path: str, cap: int):
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return srg.graph_loads(text, cap)
    return srg.graph_from_edge_list(text, cap)


def _json_line(data) -> str:
    return json.dumps(data) + "\n"


def build_parser() -> argparse.ArgumentParser:
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
    p_graph.add_argument(
        "name",
        choices=[
            "paley",
            "tournament",
            "cliques",
            "grid",
            "vls",
            "polar",
            "polar-plus-comp",
            "bilinear",
            "alternating",
            "complement",
        ],
    )
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


def _field_for(q: int, cap: int) -> algebra.FiniteField:
    pp = algebra.is_prime_power(q)
    if pp is None:
        raise InputError(f"{q} is not a prime power")
    return algebra.make_field(*pp, cap=cap)


def _int_args(raw, count, usage):
    if len(raw) != count:
        raise InputError(f"expected {usage}")
    try:
        return [int(x) for x in raw]
    except ValueError:
        raise InputError(f"expected integers: {usage}") from None


def _build_graph(args, cap: int):
    name, raw = args.name, args.args
    if name == "paley":
        (q,) = _int_args(raw, 1, "paley Q")
        return srg.paley_graph(_field_for(q, cap))
    if name == "tournament":
        (q,) = _int_args(raw, 1, "tournament Q")
        return srg.paley_tournament(_field_for(q, cap))
    if name == "cliques":
        p, t, s = _int_args(raw, 3, "cliques P T S")
        return srg.clique_union(p, t, s, cap=cap)
    if name == "grid":
        (q,) = _int_args(raw, 1, "grid Q")
        return srg.grid_graph(q, cap=cap)
    if name == "vls":
        p, c, t = _int_args(raw, 3, "vls P C T")
        return srg.vanlint_schrijver(p, c, t, cap=cap)
    if name == "polar":
        if len(raw) != 3:
            raise InputError("expected polar Q E EPS")
        q, e = _int_args(raw[:2], 2, "polar Q E EPS")
        eps_text = raw[2]
        if eps_text in ("+", "plus", "+1"):
            eps = 1
        elif eps_text in ("-", "minus", "-1"):
            eps = -1
        else:
            raise InputError(f"EPS must be '+' or '-', got {eps_text!r}")
        return srg.affine_polar(q, e, eps, cap=cap)
    if name == "polar-plus-comp":
        (e,) = _int_args(raw, 1, "polar-plus-comp E")
        return srg.affine_polar_plus_complement(e, cap=cap)
    if name == "bilinear":
        q, e = _int_args(raw, 2, "bilinear Q E")
        return srg.bilinear_forms_graph(q, e, cap=cap)
    if name == "alternating":
        (q,) = _int_args(raw, 1, "alternating Q")
        return srg.alternating_forms_graph(q, cap=cap)
    if name == "complement":
        if len(raw) != 1:
            raise InputError("expected complement FILE")
        graph = _load_graph(raw[0], cap)
        if isinstance(graph, srg.DirectedGraph):
            raise InputError("complement is defined for undirected graphs only")
        return srg.complement(graph)
    raise InputError(f"unknown graph family {name!r}")


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


def _cmd_verify(args) -> int:
    group = _load_mvg(args.file)
    report = core.verify_all(group)
    if args.json:
        _write(args.output, _json_line(_report_json(report)))
    else:
        _write(args.output, _report_human(report))
    return 0 if report.ok else 1


def _cmd_iso(args) -> int:
    g1 = _load_mvg(args.file1)
    g2 = _load_mvg(args.file2)
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
        group = algebra.group_loads(_read(args.group))
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
    descriptors = classify.enumerate_families(args.vmax, cap=cap)
    chunks = []
    if args.json:
        data = {
            "families": [
                {
                    "v": d.params[0],
                    "k": d.params[1],
                    "lambda": d.params[2],
                    "mu": d.params[3],
                    "family": d.family,
                    "witness": d.witness_dict,
                }
                for d in descriptors
            ]
        }
        if args.collisions:
            data["collisions"] = [
                {"params": list(params), "families": list(fams)}
                for params, fams in classify.collisions(descriptors).items()
            ]
        chunks.append(_json_line(data))
    elif args.csv:
        chunks.append(classify.catalogue_csv(descriptors))
        if args.collisions:
            for params, fams in classify.collisions(descriptors).items():
                chunks.append("# collision {}: {}\n".format(params, "/".join(fams)))
    else:
        header = f"{'v':>7} {'k':>6} {'lambda':>6} {'mu':>6}  family  witness"
        rows = [header, "-" * len(header)]
        for d in descriptors:
            v, k, lam, mu = d.params
            rows.append(f"{v:>7} {k:>6} {lam:>6} {mu:>6}  {d.family:<6}  {d.witness_str()}")
        if args.collisions:
            rows.append("")
            rows.append("collisions:")
            report = classify.collisions(descriptors)
            if not report:
                rows.append("  none")
            for params, fams in report.items():
                rows.append(f"  {params}: {'/'.join(fams)}")
        chunks.append("\n".join(rows) + "\n")
    _write(args.output, "".join(chunks))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "iso":
            return _cmd_iso(args)
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


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
