"""Command line interface.

Every subcommand wraps a library call one to one.  Exit codes: 0 for
success or a true check, 1 for a false check, 2 for invalid input, 3 for
an internal error.  ``--json`` switches to machine-readable output.

Words use the token grammar ``s<i>`` / ``b(<r>,<s>)`` with optional
``^<k>`` and ``e`` for the empty word.  Moves are comma-separated:
``slip,2``  ``slide-up,0``  ``slide-down,1``  ``deflate,3``
``inflate,<strand>,<+|->[,<height>]``  ``twirl``  ``turn``
``flip-vertical``  ``mirror``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diagrams, invariants, pipeline, plumbing, stars, surfaces, words

OK, FALSE, INVALID, INTERNAL = 0, 1, 2, 3


def _load_diagram(path: str) -> diagrams.Diagram:
    with open(path) as fh:
        return diagrams.Diagram.from_json(fh.read())


def _load_surface(path: str) -> surfaces.BraidedSurface:
    with open(path) as fh:
        return surfaces.BraidedSurface.from_json(fh.read())


def _word(text: str, strands):
    return words.parse_word(text, strands=strands)


def _band_word(text: str, strands) -> words.BKLWord:
    """A word in either alphabet, as band generators."""
    w = words.parse_word(text, strands=strands, kind="bkl")
    return words.artin_to_bkl(w) if isinstance(w, words.ArtinWord) else w


def _emit(args, payload, text=None):
    if args.json:
        print(json.dumps(payload))
    else:
        print(payload if text is None else text)


# -- braid ------------------------------------------------------------------

def _braid_translate(args):
    w = _word(args.word, args.strands)
    if isinstance(w, words.ArtinWord):
        out = words.artin_to_bkl(w)
    else:
        out = words.bkl_to_artin(w)
    _emit(args, {"word": words.format_word(out), "strands": out.strands},
          words.format_word(out))
    return OK


def _braid_check_homogeneous(args):
    w = _word(args.word, args.strands)
    report = words.homogeneity_report(w)
    payload = {"homogeneous": report.homogeneous, "mixed": [list(g) if isinstance(g, tuple) else g for g in report.mixed]}
    _emit(args, payload, "homogeneous" if report.homogeneous else f"mixed generators: {report.mixed}")
    return OK if report.homogeneous else FALSE


def _braid_equal(args):
    u = _word(args.word1, args.strands)
    v = _word(args.word2, args.strands)
    equal = words.braids_equal(u, v)
    _emit(args, {"equal": equal}, "equal" if equal else "different")
    return OK if equal else FALSE


def _braid_components(args):
    w = _word(args.word, args.strands)
    perm, comps = words.permutation_and_components(w)
    _emit(args, {"permutation": list(perm.image), "components": comps},
          f"permutation {list(perm.image)}, {comps} component(s)")
    return OK


def _braid_exponent_sum(args):
    w = _word(args.word, args.strands)
    _emit(args, {"exponent_sum": words.exponent_sum(w)}, words.exponent_sum(w))
    return OK


# -- diagram ----------------------------------------------------------------

def _diagram_seifert(args):
    d = _load_diagram(args.file)
    circles, bands, graph = diagrams.seifert_decompose(d)
    payload = {
        "circles": [list(c) for c in circles],
        "bands": [{"u": u, "v": v, "sign": s, "crossing": c} for u, v, s, c in bands],
    }
    _emit(args, payload, json.dumps(payload, indent=2))
    return OK


def _diagram_homogeneous(args):
    d = _load_diagram(args.file)
    report = diagrams.is_homogeneous_diagram(d)
    payload = {
        "homogeneous": report.homogeneous,
        "blocks": [
            {"edges": [list(e) for e in block], "mixed": i in report.mixed_blocks}
            for i, block in enumerate(report.decomposition.blocks)
        ],
        "cut_vertices": list(report.decomposition.cut_vertices),
    }
    _emit(args, payload, "homogeneous" if report.homogeneous else "not homogeneous")
    return OK if report.homogeneous else FALSE


def _diagram_primitive_flat(args):
    d = _load_diagram(args.file)
    flat = diagrams.is_primitive_flat(d)
    _emit(args, {"primitive_flat": flat}, "primitive flat" if flat else "not primitive flat")
    return OK if flat else FALSE


# -- surface ----------------------------------------------------------------

def _surface_from_word(args):
    s = surfaces.from_word(_band_word(args.word, args.strands))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(surfaces.render_svg(s))
    _emit(args, json.loads(s.to_json()), s.to_json())
    return OK


_INFLATE_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _parse_move(text: str) -> surfaces.MoveSpec:
    parts = text.split(",")
    kind = parts[0].replace("-", "_")
    if kind in ("twirl", "turn", "flip_vertical", "mirror") and len(parts) == 1:
        return surfaces.MoveSpec(kind)
    if kind in ("slip", "slide_up", "slide_down", "deflate") and len(parts) == 2:
        return surfaces.MoveSpec(kind, position=int(parts[1]))
    if kind == "inflate" and len(parts) in (3, 4):
        strand = int(parts[1])
        sign = _INFLATE_SIGNS.get(parts[2])
        if sign is None:
            raise ValueError(f"inflate sign must be +, +1, 1, -, or -1, got {parts[2]!r}")
        height = int(parts[3]) if len(parts) > 3 else 0
        return surfaces.MoveSpec(kind, strand=strand, sign=sign, height=height)
    raise ValueError(f"unknown move or wrong parameter count: {text!r}")


def _surface_apply(args):
    s = _load_surface(args.file)
    s = surfaces.apply_move(s, _parse_move(args.move))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(surfaces.render_svg(s))
    _emit(args, json.loads(s.to_json()), s.to_json())
    return OK


def _surface_genus(args):
    s = _load_surface(args.file)
    chi, mu, genus = surfaces.euler_genus(s)
    _emit(args, {"euler": chi, "boundary_components": mu, "genus": genus},
          f"euler {chi}, boundary components {mu}, genus {genus}")
    return OK


# -- stars ------------------------------------------------------------------

def _star_reduce(args):
    s = _load_surface(args.surface)
    with open(args.star) as fh:
        star = stars.Star.from_json(fh.read())
    stars.check_star(s, star)
    trace = []
    for s, star in stars.reductions(s, star):
        trace.append({"word": words.format_word(surfaces.to_word(s)), "delta_b": stars.delta_b(star)})
    payload = {
        "surface": json.loads(s.to_json()),
        "star": json.loads(star.to_json()),
        "trace": trace if args.trace else trace[-1:],
    }
    if args.trace and not args.json:
        for step in trace:
            print(f"delta_b={step['delta_b']:3d}  {step['word']}")
    else:
        _emit(args, payload, json.dumps(payload))
    return OK


# -- plumbing ---------------------------------------------------------------

def _plumb(args):
    w1 = _band_word(args.word1, args.strands1)
    w2 = _band_word(args.word2, args.strands2)
    pattern = plumbing.ShufflePattern.parse(args.pattern) if args.pattern else None
    out = plumbing.plumb(w1, w2, pattern)
    _emit(args, {"word": words.format_word(out), "strands": out.strands},
          words.format_word(out))
    return OK


def _deplumb(args):
    w1, w2, pattern = plumbing.deplumb(_band_word(args.word, args.strands), args.n1)
    payload = {
        "first": words.format_word(w1),
        "second": words.format_word(w2),
        "strands1": w1.strands,
        "strands2": w2.strands,
        "pattern": str(pattern),
    }
    _emit(args, payload, f"{payload['first']}  |  {payload['second']}  (pattern {pattern})")
    return OK


def _homogenize(args):
    d = _load_diagram(args.file)
    word, steps = pipeline._homogenize(d)
    payload = {"word": words.format_word(word), "strands": word.strands}
    if args.tree:
        if steps is None:
            raise pipeline.PipelineError("--tree needs a connected diagram with no free unknots")
        tree = steps[0][0].to_obj()
        for leaf, circle in steps[1:]:
            tree = {"joint": {"circle": circle, "left": tree, "right": leaf.to_obj()}}
        payload["tree"] = tree
    _emit(args, payload, words.format_word(word))
    return OK


# -- invariants ---------------------------------------------------------------

def _invariant_word_or_diagram(args):
    if args.word is not None:
        return _word(args.word, args.strands)
    return _load_diagram(args.diagram)


def _invariant_alexander(args):
    obj = _invariant_word_or_diagram(args)
    if isinstance(obj, diagrams.Diagram):
        poly = invariants.alexander_from_diagram(obj)
    else:
        poly = invariants.alexander_from_braid(obj)
    coeffs, offset = poly.coefficient_list()
    _emit(args, {"coefficients": coeffs, "offset": offset, "poly": str(poly)}, str(poly))
    return OK


def _invariant_components(args):
    obj = _invariant_word_or_diagram(args)
    if isinstance(obj, diagrams.Diagram):
        comps = diagrams.link_components(obj)
    else:
        comps = words.closure_components(obj)
    _emit(args, {"components": comps}, comps)
    return OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    p = argparse.ArgumentParser(prog="braidbands", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    braid = sub.add_parser("braid").add_subparsers(dest="sub", required=True)
    t = braid.add_parser("translate", parents=[common])
    t.add_argument("word")
    t.add_argument("--strands", type=int)
    t.set_defaults(func=_braid_translate)
    c = braid.add_parser("check-homogeneous", parents=[common])
    c.add_argument("word")
    c.add_argument("--strands", type=int)
    c.set_defaults(func=_braid_check_homogeneous)
    e = braid.add_parser("equal", parents=[common])
    e.add_argument("word1")
    e.add_argument("word2")
    e.add_argument("--strands", type=int)
    e.set_defaults(func=_braid_equal)
    k = braid.add_parser("components", parents=[common])
    k.add_argument("word")
    k.add_argument("--strands", type=int)
    k.set_defaults(func=_braid_components)
    x = braid.add_parser("exponent-sum", parents=[common])
    x.add_argument("word")
    x.add_argument("--strands", type=int)
    x.set_defaults(func=_braid_exponent_sum)

    diagram = sub.add_parser("diagram").add_subparsers(dest="sub", required=True)
    for name, fn in (("seifert", _diagram_seifert),
                     ("homogeneous", _diagram_homogeneous),
                     ("primitive-flat", _diagram_primitive_flat)):
        d = diagram.add_parser(name, parents=[common])
        d.add_argument("file")
        d.set_defaults(func=fn)

    surface = sub.add_parser("surface").add_subparsers(dest="sub", required=True)
    f = surface.add_parser("from-word", parents=[common])
    f.add_argument("word")
    f.add_argument("--strands", type=int)
    f.add_argument("--svg")
    f.set_defaults(func=_surface_from_word)
    a = surface.add_parser("apply", parents=[common])
    a.add_argument("file")
    a.add_argument("--move", required=True)
    a.add_argument("--svg")
    a.set_defaults(func=_surface_apply)
    g = surface.add_parser("genus", parents=[common])
    g.add_argument("file")
    g.set_defaults(func=_surface_genus)

    star = sub.add_parser("star").add_subparsers(dest="sub", required=True)
    r = star.add_parser("reduce", parents=[common])
    r.add_argument("surface")
    r.add_argument("star")
    r.add_argument("--trace", action="store_true")
    r.set_defaults(func=_star_reduce)

    pl = sub.add_parser("plumb", parents=[common])
    pl.add_argument("word1")
    pl.add_argument("word2")
    pl.add_argument("--strands1", type=int, required=True)
    pl.add_argument("--strands2", type=int, required=True)
    pl.add_argument("--pattern")
    pl.set_defaults(func=_plumb)

    dp = sub.add_parser("deplumb", parents=[common])
    dp.add_argument("word")
    dp.add_argument("--n1", type=int, required=True)
    dp.add_argument("--strands", type=int)
    dp.set_defaults(func=_deplumb)

    hz = sub.add_parser("homogenize", parents=[common])
    hz.add_argument("file")
    hz.add_argument("--tree", action="store_true")
    hz.set_defaults(func=_homogenize)

    inv = sub.add_parser("invariant").add_subparsers(dest="sub", required=True)
    for name, fn in (("alexander", _invariant_alexander), ("components", _invariant_components)):
        i = inv.add_parser(name, parents=[common])
        source = i.add_mutually_exclusive_group(required=True)
        source.add_argument("--word")
        source.add_argument("--diagram")
        i.add_argument("--strands", type=int)
        i.set_defaults(func=fn)

    return p


_INPUT_ERRORS = (
    words.WordError,
    diagrams.DiagramError,
    surfaces.MoveError,
    stars.StarError,
    plumbing.PlumbingError,
    pipeline.PipelineError,
    FileNotFoundError,
    json.JSONDecodeError,
    ValueError,
)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
