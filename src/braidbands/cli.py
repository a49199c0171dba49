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


def _load(path: str, cls):
    """The ``cls`` read by its ``from_json`` from the file at ``path``."""
    with open(path) as fh:
        return cls.from_json(fh.read())


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


def _emit_word(args, w: words.Word):
    _emit(args, {"word": words.format_word(w), "strands": w.strands}, words.format_word(w))
    return OK


def _emit_surface(args, s: surfaces.BraidedSurface):
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(surfaces.render_svg(s))
    _emit(args, json.loads(s.to_json()), s.to_json())
    return OK


# -- braid ------------------------------------------------------------------

def _braid_translate(args):
    w = _word(args.word, args.strands)
    out = words.artin_to_bkl(w) if isinstance(w, words.ArtinWord) else words.bkl_to_artin(w)
    return _emit_word(args, out)


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
    perm = words.permutation_of(w)
    comps = perm.cycle_count()
    _emit(args, {"permutation": list(perm.image), "components": comps},
          f"permutation {list(perm.image)}, {comps} component(s)")
    return OK


def _braid_exponent_sum(args):
    w = _word(args.word, args.strands)
    total = words.exponent_sum(w)
    _emit(args, {"exponent_sum": total}, total)
    return OK


# -- diagram ----------------------------------------------------------------

def _diagram_seifert(args):
    d = _load(args.file, diagrams.Diagram)
    circles, bands, graph = diagrams.seifert_decompose(d)
    payload = {
        "circles": [list(c) for c in circles],
        "bands": [{"u": u, "v": v, "sign": s, "crossing": c} for u, v, s, c in bands],
    }
    _emit(args, payload, json.dumps(payload, indent=2))
    return OK


def _diagram_homogeneous(args):
    d = _load(args.file, diagrams.Diagram)
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
    d = _load(args.file, diagrams.Diagram)
    flat = diagrams.is_primitive_flat(d)
    _emit(args, {"primitive_flat": flat}, "primitive flat" if flat else "not primitive flat")
    return OK if flat else FALSE


# -- surface ----------------------------------------------------------------

def _surface_from_word(args):
    return _emit_surface(args, surfaces.from_word(_band_word(args.word, args.strands)))


_INFLATE_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _inflate_sign(text: str) -> int:
    if text not in _INFLATE_SIGNS:
        raise ValueError(f"inflate sign must be +, +1, 1, -, or -1, got {text!r}")
    return _INFLATE_SIGNS[text]


# Each move kind: its ``surfaces`` function and a parser per parameter.
# Only inflate's last parameter, the height, may be left out (default 0).
_MOVES = {
    "twirl": (surfaces.twirl, ()),
    "turn": (surfaces.turn, ()),
    "flip_vertical": (surfaces.flip_vertical, ()),
    "mirror": (surfaces.mirror, ()),
    "slip": (surfaces.slip, (int,)),
    "slide_up": (surfaces.slide_up, (int,)),
    "slide_down": (surfaces.slide_down, (int,)),
    "deflate": (surfaces.deflate, (int,)),
    "inflate": (surfaces.inflate, (int, _inflate_sign, int)),
}


def _parse_move(text: str):
    """The move ``text`` names, as a function of the surface it applies to."""
    kind, *params = text.split(",")
    move, parsers = _MOVES.get(kind.replace("-", "_"), (None, ()))
    shortest = len(parsers) - (move is surfaces.inflate)
    if move is None or not shortest <= len(params) <= len(parsers):
        raise ValueError(f"unknown move or wrong parameter count: {text!r}")
    values = [parse(p) for parse, p in zip(parsers, params)]
    return lambda s: move(s, *values)


def _surface_apply(args):
    s = _load(args.file, surfaces.BraidedSurface)  # a bad file is reported before a bad move
    return _emit_surface(args, _parse_move(args.move)(s))


def _surface_genus(args):
    s = _load(args.file, surfaces.BraidedSurface)
    chi, mu, genus = surfaces.euler_genus(s)
    _emit(args, {"euler": chi, "boundary_components": mu, "genus": genus},
          f"euler {chi}, boundary components {mu}, genus {genus}")
    return OK


# -- stars ------------------------------------------------------------------

def _star_reduce(args):
    s = _load(args.surface, surfaces.BraidedSurface)
    star = _load(args.star, stars.Star)
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
    return _emit_word(args, plumbing.plumb(w1, w2, pattern))


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
    d = _load(args.file, diagrams.Diagram)
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
    return _load(args.diagram, diagrams.Diagram)


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
    for name, fn in (("translate", _braid_translate),
                     ("check-homogeneous", _braid_check_homogeneous),
                     ("equal", _braid_equal),
                     ("components", _braid_components),
                     ("exponent-sum", _braid_exponent_sum)):
        b = braid.add_parser(name, parents=[common])
        for operand in ("word1", "word2") if fn is _braid_equal else ("word",):
            b.add_argument(operand)
        b.add_argument("--strands", type=int)
        b.set_defaults(func=fn)

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
