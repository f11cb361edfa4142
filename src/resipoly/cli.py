"""Command-line interface.

Commands

    info        counts, level components and special components per level
    dims        flag dimensions, the five identity checks, per-block table
    basis       canonical reduced basis of the residue space
    gamma       subset table of projected residue-space dimensions
    polytope    exact vertices and subset inequalities of its base polytope
    faces       face correspondence sweep over all ordered partitions
    degenerate  limit checks of the input space against a finer partition
    verify      the full verification suite (fixtures + seeded random sweeps)

All rational output is exact ("n" or "p/q" strings); reports are
deterministic for a fixed input and seed.  Exit status: 0 when every check
passes, 1 when a mathematical check fails or an invariant is violated
(:class:`~resipoly.polytopes.InvariantViolation`), 2 for input or usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures
from .degeneration import check_degeneration
from .graphs import GraphDocumentError, LevelStructure, bits, is_coarsening, load_level_graph
from .polytopes import (
    InvariantViolation,
    base_polytope,
    check_polytope_faces,
    residue_projection_table,
)
from .residues import LevelGraph, residue_space
from .verify import VerifyConfig, full_verification

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _read_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as err:
        raise GraphDocumentError(
            f"{path}:{err.lineno}:{err.colno}: invalid JSON ({err.msg})"
        ) from err
    except (OSError, ValueError, RecursionError) as err:
        # a ValueError here is a byte that is not UTF-8 or an integer past
        # the digit limit, a RecursionError nesting past the parser's depth
        raise GraphDocumentError(f"cannot read {path}: {err}") from err


def _load_input(path):
    return load_level_graph(_read_document(path))


def _emit(report, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        _emit_text(report, sys.stdout)


def _emit_text(value, out, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner:
                out.write(f"{pad}{key}:\n")
                _emit_text(inner, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {inner}\n")
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)):
                out.write(f"{pad}-\n")
                _emit_text(inner, out, indent + 1)
            else:
                out.write(f"{pad}- {inner}\n")
    else:
        out.write(f"{pad}{value}\n")


def cmd_info(args):
    model = LevelGraph(*_load_input(args.input))
    names = model.graph.names
    per_level = [
        {
            "level": n,
            "vertices": list(model.levels.part(n)),
            "level_components": [list(names(c)) for c in pair.components],
            "components_below": [list(names(c)) for c in pair.below],
            "special_below": [list(names(c)) for c in pair.special],
        }
        for n, pair in enumerate(model.pairs, start=1)
    ]
    report = {"counts": model.counts.as_dict(), "per_level": per_level}
    _emit(report, args.format)
    return EXIT_OK


def cmd_dims(args):
    model = LevelGraph(*_load_input(args.input))
    flag = model.flag()
    report = model.component_report(flag.dims)
    identities = [c.as_dict() for c in flag.identities()]
    payload = {
        "counts": flag.counts.as_dict(),
        "dims": {
            "downward": flag.dims[0],
            "local": flag.dims[1],
            "rosenlicht": flag.dims[2],
            "residue": flag.dims[3],
        },
        "identities": identities,
        "inclusions": [{"name": n, "ok": ok} for n, ok in flag.inclusions()],
        "blocks": [
            {
                "level": b.level,
                "component": list(b.component),
                "level_vertices": list(b.level_vertices),
                "lrc": list(b.local_labels),
                "ros": list(b.rosenlicht_labels),
                "glob": list(b.global_labels),
                "block_dim": b.block_dim,
                "codim_local": b.codim_local,
                "codim_rosenlicht": b.codim_rosenlicht,
                "codim_global": b.codim_global,
            }
            for b in report.blocks
        ],
        "levels": [s.as_dict() for s in report.levels],
        "component_totals_ok": report.totals_consistent,
    }
    all_ok = (
        all(item["ok"] for item in identities)
        and all(item["ok"] for item in payload["inclusions"])
        and report.totals_consistent
    )
    payload["ok"] = all_ok
    _emit(payload, args.format)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_basis(args):
    graph, levels = _load_input(args.input)
    space = residue_space(graph, levels)
    payload = {
        "arrows": [a.label for a in graph.arrows],
        "dim": space.dim,
        "basis": [[str(x) for x in row] for row in space.basis],
    }
    _emit(payload, args.format)
    return EXIT_OK


def _subset_names(ground):
    """The names in every subset of ``ground``, listed by bitmask: one
    doubling pass, element i adding itself to the subsets listed so far."""
    names = [[]]
    for name in ground:
        names += [subset + [name] for subset in names]
    return names


def _table_report(table):
    entries = [
        {"subset": subset, "value": str(value)}
        for subset, value in zip(_subset_names(table.ground), table.values)
    ]
    return {"ground": list(table.ground), "entries": entries}


def cmd_gamma(args):
    graph, levels = _load_input(args.input)
    table = residue_projection_table(graph, levels)
    _emit(_table_report(table), args.format)
    return EXIT_OK


def cmd_polytope(args):
    graph, levels = _load_input(args.input)
    table = residue_projection_table(graph, levels)
    poly = base_polytope(table)
    payload = {
        "ground": list(poly.ground),
        "vertices": [[str(x) for x in q] for q in poly.vertices],
        "inequalities": [
            {"subset": subset, "bound": str(value)}
            for subset, value in zip(_subset_names(table.ground)[1:], table.values[1:])
        ],
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_faces(args):
    graph, _ = _load_input(args.input)
    report = check_polytope_faces(graph)
    faces = [
        {
            "ordered_partition": [list(p) for p in pi.parts],
            "vertex_indices": bits(lower),
        }
        for pi, lower in report.chain_faces
    ]
    payload = {
        "orientation": report.orientation,
        "partitions": report.partitions_checked,
        "distinct_faces": report.distinct_faces,
        "containment_ok": report.containment_ok,
        "chain_match_ok": report.chain_match_ok,
        "coarsening_ok": report.coarsening_ok,
        "lattice_ok": report.lattice_ok,
        "ok": report.ok,
        "failures": list(report.failures),
        "vertices": [[str(x) for x in q] for q in report.reference.vertices],
        "faces": faces,
    }
    _emit(payload, args.format)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_degenerate(args):
    graph, coarse = _load_input(args.input)
    raw = _read_document(args.fine)
    # a document when its "levels" is an object; otherwise a level map,
    # where a vertex may be named "levels"
    if isinstance(raw, dict) and isinstance(raw.get("levels"), dict):
        raw = raw["levels"]
    if not isinstance(raw, dict):
        raise GraphDocumentError("--fine must hold a level map")
    fine = LevelStructure.from_map(graph.vertices, raw)
    if not is_coarsening(fine, coarse):
        raise GraphDocumentError(
            "the input level structure is not a coarsening of --fine"
        )
    result = check_degeneration(graph, fine, coarse)
    payload = {
        "fine": [list(p) for p in fine.parts],
        "coarse": [list(p) for p in coarse.parts],
        "checks": {
            "limit": result.limit_matches,
            "realization": result.realization_matches,
            "splitting": result.splitting_matches,
            "oracle": result.oracle_matches,
        },
        "ok": result.ok,
        "arrows": [a.label for a in graph.arrows],
        "coarse_basis": [[str(x) for x in row] for row in result.coarse_space.basis],
        "fine_basis": [[str(x) for x in row] for row in result.fine_space.basis],
    }
    _emit(payload, args.format)
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def cmd_verify(args):
    config = VerifyConfig(
        seed=args.seed,
        cases=args.random_cases,
        include_random=not args.skip_random,
    )
    if args.input:
        documents = [(args.input, _read_document(args.input))]
    else:
        documents = fixtures.all_documents()
    report, ok = full_verification(config, documents)
    _emit(report, args.format)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _positive_int(text):
    """An argparse type: a decimal integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _add_common(parser, input_required=True):
    parser.add_argument("--input", required=input_required, help="graph document (JSON)")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resipoly",
        description="Residue spaces and residue polytopes of level graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, blurb in (
        ("info", cmd_info, "counts and per-level components"),
        ("dims", cmd_dims, "flag dimensions and identity checks"),
        ("basis", cmd_basis, "canonical basis of the residue space"),
        ("gamma", cmd_gamma, "projected-dimension subset table"),
        ("polytope", cmd_polytope, "base polytope vertices and inequalities"),
        ("faces", cmd_faces, "face correspondence sweep"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("degenerate", help="limit checks against a finer partition")
    _add_common(p)
    p.add_argument("--fine", required=True, help="finer level map (JSON)")
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("verify", help="full verification suite")
    _add_common(p, input_required=False)
    p.add_argument("--seed", type=int, default=0, help="random suite seed")
    p.add_argument(
        "--random-cases",
        type=_positive_int,
        default=200,
        metavar="N",
        help="random graphs for the identity sweep (other suites scale off it)",
    )
    p.add_argument(
        "--skip-random",
        action="store_true",
        help="fixture checks only, no random sweeps",
    )
    p.set_defaults(func=cmd_verify)
    return parser


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:  # once per process: each parser leaves cyclic garbage
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as err:
        print(f"error: invariant violated: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
