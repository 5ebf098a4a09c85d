"""Batch command-line front end.

Grammar: complementa <build|lattice|check|bounds|verify|export> [flags].
Documented JSON goes to stdout (byte-identical for identical argv);
diagnostics and timing go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain

from .bounds import bound_report
from .complementation import (complements, is_completely_factorizable,
                              is_c_separating, is_supercomplemented)
from .constructions import RECIPES, NamedGroup, catalog, catalog_entry
from .groups import GroupError, group_from_json, group_to_dict
from .series import is_nilpotent
from .subgroups import (LATTICE_CAP, all_subgroups, generated_subgroup,
                        is_abelian, is_elementary_abelian, is_normal,
                        lattice_to_dict, lattice_to_dot)
from .verify import (reports_to_dicts, run_catalog_suite, summarize,
                     verify_holomorph8, verify_split_p5)


@cache
def _catalog_names() -> frozenset[str]:
    return frozenset(e.name for e in catalog())


# The flags each parametrized recipe reads, in the order of its arguments
_RECIPE_PARAMS = {"cyclic": ("n",), "dihedral": ("n",), "holomorph": ("n",),
                  "elementary": ("p", "n"), "split-p5": ("p",)}


def _refuse_unread(args, what: str, reads=()) -> None:
    """A usage error for a --n or --p value that ``what`` never reads."""
    for flag in ("n", "p"):
        if flag not in reads and getattr(args, flag, None) is not None:
            raise GroupError(f"{what} reads no --{flag}")


def _resolve_group(args) -> NamedGroup:
    """Recipe name, catalog entry name, or path to a cayley-v1 JSON file."""
    recipe = args.recipe
    if recipe is None:
        raise GroupError("--recipe is required for this subcommand")
    if os.path.exists(recipe) or recipe.endswith(".json"):
        _refuse_unread(args, f"cayley-v1 file {recipe!r}")
        with open(recipe, "r", encoding="utf-8") as fh:
            nm = NamedGroup(group_from_json(fh.read()), {}, {})
        args.loaded = nm.group  # this request's own: ``run`` drops its memo
        return nm
    if recipe in _catalog_names():
        _refuse_unread(args, f"catalog entry {recipe!r}")
        return catalog_entry(recipe).build()
    if recipe in RECIPES:
        params = _RECIPE_PARAMS.get(recipe, ())
        _refuse_unread(args, f"recipe {recipe!r}", params)
        missing = [f"--{flag}" for flag in params if getattr(args, flag) is None]
        if missing:
            raise GroupError(f"recipe {recipe!r} needs {' and '.join(missing)}")
        return RECIPES[recipe](*(getattr(args, flag) for flag in params))
    raise GroupError(f"unknown recipe {recipe!r}")


def _resolve_subgroup(nm: NamedGroup, spec: str):
    if spec in nm.subgroups:
        return nm.subgroups[spec]
    tokens = spec.split(",")
    if any(t.strip() == "" for t in tokens):
        raise GroupError(f"empty element index in subgroup list {spec!r}; "
                         "use --subgroup 0 for the trivial subgroup")
    try:
        elems = [int(t) for t in tokens]
    except ValueError:
        raise GroupError(
            f"unknown subgroup handle {spec!r}; have {sorted(nm.subgroups)} "
            "or use a comma-separated element index list") from None
    bad = [e for e in elems if not 0 <= e < nm.group.order]
    if bad:
        raise GroupError(f"element indices out of range: {bad}")
    return generated_subgroup(nm.group, elems)


def _emit(args, payload: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


_encode_scalar = json.JSONEncoder().encode
# used only on lists that hold no container below their rows, which cannot
# refer to themselves
_encode_compact = json.JSONEncoder(separators=(",", ":"),
                                   check_circular=False).encode
_PLAIN_SCALARS = {int, bool, type(None)}


def _indented_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, raising where it raises.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder.
    Here lists and str-keyed dicts are walked in Python, but scalars and
    keys go through the C encoder, and so do two kinds of list whole: a
    list of plain ints, bools and None, and a list of non-empty rows of
    plain ints.  Their compact text has only digits, signs, commas, brackets
    and literals, so ``str.replace`` re-spaces it to the indented text, and
    no Python code runs per item.  ``json`` itself writes a dict with a
    non-str key, and the whole of an object too deep for the walk, which
    includes a circular one: there ``json`` raises its own error.
    """
    try:
        return _json_text(obj, "\n")
    except RecursionError:
        return json.dumps(obj, indent=2)


def _json_text(obj, newline: str) -> str:
    """The indented JSON of obj at the level whose line break and indent is
    ``newline``."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        types = set(map(type, obj))
        if types <= _PLAIN_SCALARS:
            items = _encode_compact(obj)[1:-1].replace(",", "," + inner)
            return f"[{inner}{items}{newline}]"
        if (types <= {list, tuple} and all(obj)
                and set(map(type, chain.from_iterable(obj))) == {int}):
            deeper = inner + "  "
            rows = _encode_compact(obj)[2:-2].replace(",", "," + deeper).replace(
                "]," + deeper + "[", f"{inner}],{inner}[{deeper}")
            return f"[{inner}[{deeper}{rows}{inner}]{newline}]"
        items = [_json_text(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            # json's text holds no raw line break but its own
            return json.dumps(obj, indent=2).replace("\n", newline)
        inner = newline + "  "
        items = [_encode_scalar(key) + ": " + _json_text(value, inner)
                 for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return _encode_scalar(obj)


def _emit_json(args, obj):
    _emit(args, _indented_json(obj) + "\n")


def cmd_build(args) -> int:
    nm = _resolve_group(args)
    _emit_json(args, group_to_dict(nm.group))
    return 0


def cmd_lattice(args) -> int:
    nm = _resolve_group(args)
    lat = all_subgroups(nm.group, cap=args.cap)
    if args.format == "dot":
        _emit(args, lattice_to_dot(lat))
    else:
        _emit_json(args, lattice_to_dict(lat))
    return 0


_PREDICATES = ("complemented", "supercomplemented", "completely-factorizable",
               "c-separating", "normal", "abelian", "elementary-abelian",
               "nilpotent")


def cmd_check(args) -> int:
    nm = _resolve_group(args)
    g = nm.group
    result: dict = {"predicate": args.predicate}
    # these two ask about G itself
    of_group = args.predicate in ("completely-factorizable", "nilpotent")
    if of_group != (args.subgroup is None):
        raise GroupError(f"predicate {args.predicate!r} "
                         f"{'reads no' if of_group else 'needs'} --subgroup")
    if not of_group:
        sub = _resolve_subgroup(nm, args.subgroup)
        result["subgroup"] = {"order": sub.order, "members": list(sub.elements())}
    if args.predicate == "complemented":
        res = complements(g, sub, mode=args.mode, cap=args.cap)
        result["result"] = bool(res.complements)
        result["complements"] = [list(t.elements()) for t in res.complements]
        result["exhaustive"] = res.exhaustive
    elif args.predicate in ("supercomplemented", "completely-factorizable"):
        ok, wit = (is_completely_factorizable(g, cap=args.cap) if of_group
                   else is_supercomplemented(g, sub, cap=args.cap))
        result["result"] = ok
        result["witness"] = list(wit.elements()) if wit else None
    elif args.predicate == "c-separating":
        result["result"] = is_c_separating(g, sub, cap=args.cap)
    elif args.predicate == "normal":
        result["result"] = is_normal(g, sub)
    elif args.predicate == "abelian":
        result["result"] = is_abelian(sub)
    elif args.predicate == "elementary-abelian":
        result["result"] = is_elementary_abelian(sub)
    elif args.predicate == "nilpotent":
        result["result"] = is_nilpotent(g)
    _emit_json(args, result)
    return 0


def cmd_bounds(args) -> int:
    report = bound_report(args.m, q=args.q)
    _emit_json(args, report.to_dict())
    return 0


def cmd_verify(args) -> int:
    suite = args.suite
    _refuse_unread(args, f"suite {suite!r}", ("p",) if suite == "split-p5" else ())
    if suite == "holomorph8":
        reports = verify_holomorph8()
    elif suite in ("split-p5", "split-p5-2", "split-p5-3"):
        p = args.p if suite == "split-p5" else int(suite.rsplit("-", 1)[1])
        if p is None:
            raise GroupError("suite 'split-p5' needs --p")
        reports = verify_split_p5(p)
    elif suite in ("catalog", "all"):
        reports = run_catalog_suite()
    elif suite.startswith("catalog:"):
        names = [n for n in suite.split(":", 1)[1].split(",") if n]
        unknown = [n for n in names if n not in _catalog_names()]
        if unknown:
            raise GroupError(f"unknown catalog entries: {', '.join(unknown)}")
        if not names:
            raise GroupError(f"suite {suite!r} names no catalog entry")
        reports = run_catalog_suite(names=names)
    else:
        raise GroupError(f"unknown suite {suite!r}; use holomorph8, split-p5-2, "
                         "split-p5-3, catalog, all, or catalog:<names>")
    counts = summarize(reports)
    if args.json:
        _emit_json(args, reports_to_dicts(reports, timing=False))
    else:
        lines = [f"{r.claim}: {r.status}" for r in reports]
        _emit(args, "\n".join(lines) + "\n")
    print(f"pass={counts['pass']} fail={counts['fail']} skipped={counts['skipped']}",
          file=sys.stderr)
    return 1 if counts["fail"] else 0


def cmd_export(args) -> int:
    """``build`` for the cayley format; ``lattice`` otherwise, which writes
    DOT for ``dot`` and JSON for ``lattice``."""
    return (cmd_build if args.format == "cayley" else cmd_lattice)(args)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="complementa",
        description="Finite-group complementation analysis over multiplication tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--recipe": dict(help="recipe name, catalog entry, or cayley-v1 JSON path"),
        "--p": dict(type=int, help="prime parameter for parametrized recipes"),
        "--n": dict(type=int, help="order/rank parameter for parametrized recipes"),
        "--json": dict(action="store_true", help="emit machine-readable JSON"),
        "--out": dict(help="write output to a file instead of stdout"),
        "--cap": dict(type=int, default=LATTICE_CAP, help="lattice size cap override"),
    }

    def add(p, *names):
        for name in names:
            p.add_argument(name, **flags[name])

    p_build = sub.add_parser("build", help="construct a group and emit cayley-v1 JSON")
    add(p_build, "--recipe", "--p", "--n", "--out")
    p_build.set_defaults(func=cmd_build)

    p_lat = sub.add_parser("lattice", help="enumerate the subgroup lattice")
    add(p_lat, "--recipe", "--p", "--n", "--out", "--cap")
    p_lat.add_argument("--format", choices=("json", "dot"), default="json")
    p_lat.set_defaults(func=cmd_lattice)

    p_check = sub.add_parser("check", help="decide a predicate for a subgroup")
    p_check.add_argument("predicate", choices=_PREDICATES)
    add(p_check, "--recipe", "--p", "--n", "--out", "--cap")
    p_check.add_argument("--subgroup", help="handle name (x, a, b, B, ...) or index list")
    p_check.add_argument("--mode", choices=("first", "all"), default="first")
    p_check.set_defaults(func=cmd_check)

    p_bounds = sub.add_parser("bounds", help="print the numeric bound report for m")
    p_bounds.add_argument("--m", type=int, required=True)
    p_bounds.add_argument("--q", type=int)
    add(p_bounds, "--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, help="holomorph8, split-p5 "
                          "(needs --p), split-p5-2, split-p5-3, catalog, all, or catalog:<names>")
    p_verify.add_argument("--p", type=int, help="prime p of the split-p5 suite")
    add(p_verify, "--json", "--out")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="write a group or lattice to a file")
    add(p_export, "--recipe", "--p", "--n", "--out", "--cap")
    p_export.add_argument("--format", choices=("cayley", "lattice", "dot"),
                          default="cayley")
    p_export.set_defaults(func=cmd_export)
    return parser


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (GroupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # With its memo gone, a group read from a file is freed on return
        # rather than left to the cycle collector.
        if getattr(args, "loaded", None) is not None:
            args.loaded.clear_cache()


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
