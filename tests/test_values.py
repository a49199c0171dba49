"""The value classes keep the contract of frozen dataclasses, and importing
the command line loads neither ``dataclasses`` nor ``typing``."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from braidbands.diagrams import Diagram, analyze, blocks, is_homogeneous_diagram
from braidbands.laurent import Laurent
from braidbands.pipeline import Fatgraph, decompose_generalized_flat
from braidbands.plumbing import ShufflePattern
from braidbands.stars import Ray, Star, _Band, _materialize, _Ray
from braidbands.surfaces import BraidedSurface
from braidbands.words import ArtinWord, BKLWord, homogeneity_report

SRC = Path(__file__).resolve().parent.parent / "src"
HOPF = [[1, 4, 2, 3], [3, 2, 4, 1]]
TREFOIL = [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]]
SURFACE = BraidedSurface(3, [(1, 2, 1), (2, 3, -1)])
STAR = Star(1, [Ray(((0, "L", "R"),), 2, 0)])
HOPF_GRAPH = "SeifertGraph(vertex_count=2, edges=((0, 1, 1, 0), (0, 1, 1, 1)))"
HOPF_BLOCKS = "BlockDecomposition(cut_vertices=(), blocks=(((0, 1, 1, 0), (0, 1, 1, 1)),))"
TREFOIL_FAT = ("Fatgraph(vertex_count=2, edges=((0, 1, -1), (0, 1, -1), (0, 1, -1)), "
               "orders=(((0, 0), (2, 0), (1, 0)), ((2, 1), (1, 1), (0, 1))))")

# (a function that makes the instance, its compared fields, its repr); each
# call makes a new instance equal to the last.
FROZEN = [
    (lambda: ArtinWord(3, [(1, 1), (2, -1)]), (3, ((1, 1), (2, -1))),
     "ArtinWord(strands=3, letters=((1, 1), (2, -1)))"),
    (lambda: BKLWord(3, [(1, 3, 1)]), (3, ((1, 3, 1),)), "BKLWord(strands=3, letters=((1, 3, 1),))"),
    (lambda: homogeneity_report(ArtinWord(3, [(1, 1), (1, -1)])), (False, (1,)),
     "HomogeneityReport(homogeneous=False, mixed=(1,))"),
    (lambda: Diagram(HOPF), (((1, 4, 2, 3), (3, 2, 4, 1)), 0),
     "Diagram(crossings=((1, 4, 2, 3), (3, 2, 4, 1)), unknots=0)"),
    (lambda: analyze(Diagram(HOPF)).graph, (2, ((0, 1, 1, 0), (0, 1, 1, 1))), HOPF_GRAPH),
    (lambda: blocks(analyze(Diagram(HOPF)).graph), ((), (((0, 1, 1, 0), (0, 1, 1, 1)),)), HOPF_BLOCKS),
    (lambda: is_homogeneous_diagram(Diagram(HOPF)),
     (True, (), blocks(analyze(Diagram(HOPF)).graph)),
     f"BlockReport(homogeneous=True, mixed_blocks=(), decomposition={HOPF_BLOCKS})"),
    (lambda: Laurent((-1, 0, 1)), ((-1, 0, 1),), "Laurent(coeffs=(-1, 0, 1))"),
    (lambda: ShufflePattern((1, 2, 1)), ((1, 2, 1),), "ShufflePattern(marks=(1, 2, 1))"),
    (lambda: BraidedSurface(2, [(1, 2, -1)]), (2, ((1, 2, -1),)),
     "BraidedSurface(discs=2, bands=((1, 2, -1),))"),
    (lambda: Ray(((0, "L", "R"),), 2, 0), (((0, "L", "R"),), 2, 0),
     "Ray(steps=((0, 'L', 'R'),), tip_disc=2, tip_gap=0)"),
    (lambda: Star(1, [Ray((), 2, 0)]), (1, (Ray((), 2, 0),)),
     "Star(center=1, rays=(Ray(steps=(), tip_disc=2, tip_gap=0),))"),
    (lambda: Fatgraph(2, ((0, 1, 1),), (((0, 0),), ((0, 1),))),
     (2, ((0, 1, 1),), (((0, 0),), ((0, 1),))),
     "Fatgraph(vertex_count=2, edges=((0, 1, 1),), orders=(((0, 0),), ((0, 1),)))"),
    # circle_map and fatgraph are shown but not compared.
    (lambda: decompose_generalized_flat(Diagram(TREFOIL))[0][0], (Diagram(TREFOIL), (0, 1, 2), (0, 1)),
     f"PlumbLeaf(source={Diagram(TREFOIL)!r}, crossings=(0, 1, 2), circles=(0, 1), "
     f"circle_map={{0: 0, 1: 1}}, fatgraph={TREFOIL_FAT})"),
]


@pytest.mark.parametrize("make, fields, text", FROZEN, ids=[text.partition("(")[0] for *_, text in FROZEN])
def test_frozen_value_classes_keep_the_dataclass_contract(make, fields, text):
    x = make()
    assert x == make() and not x != make()
    assert x != fields and x != object()
    assert hash(x) == hash(fields)
    assert repr(x) == text
    name = type(x)._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert copy.copy(x) == x and copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_equality_needs_the_same_class_and_fields():
    assert ArtinWord(2, ()) != BKLWord(2, ())
    assert ArtinWord(3, [(1, 1)]) != ArtinWord(3, [(1, -1)])
    assert Diagram(HOPF) != Diagram(HOPF, unknots=1)
    # The cached structure is neither compared nor shown.
    fresh, analysed = Diagram(HOPF), Diagram(HOPF)
    analyze(analysed)
    assert fresh == analysed and hash(fresh) == hash(analysed) and repr(fresh) == repr(analysed)
    leaf = decompose_generalized_flat(Diagram(TREFOIL))[0][0]
    other = type(leaf)(leaf.source, leaf.crossings, leaf.circles, {}, None)
    assert other == leaf and hash(other) == hash(leaf)
    with pytest.raises(TypeError):
        hash(analyze(Diagram(HOPF)))  # its dicts are unhashable, as in a dataclass


def test_star_state_records_are_mutable_and_unhashable():
    state = _materialize(SURFACE, STAR)
    band, ray = state.bands[0], state.rays[0]
    assert repr(band) == "_Band(l=1, r=2, e=1, h=4)"
    assert repr(ray) == "_Ray(steps=[[0, 'L', 'R']], tip_disc=2, tip_h=6)"
    assert repr(state).startswith("_State(discs=3, bands={0: _Band(l=1, r=2, e=1, h=4), ")
    assert band == _Band(1, 2, 1, 4) and band != _Band(1, 2, 1, 5) and ray == _Ray([[0, "L", "R"]], 2, 6)
    assert state == _materialize(SURFACE, STAR)
    for record in (band, ray, state):
        with pytest.raises(TypeError):
            hash(record)
    band.h = 7
    assert band.h == 7 and band == _Band(1, 2, 1, 7)


def test_cli_import_loads_only_what_it_needs():
    # -S leaves site-packages out, as CI's standard-library import step does.
    code = ("import sys; import braidbands.cli; "
            "print(sorted({'dataclasses', 'typing', 'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
