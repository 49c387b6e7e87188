"""A set held as its right factors against a dense copy of its stack.

``lift`` and ``load_umeb`` of a ``"right_factors"`` file hold a set as its
d x d right factors Y_k and form the stack F_k (x) Y_k only when
``matrices`` or ``elements`` is first read.  A copy of that stack in a new
candidate holds no factors and is read by ``Lift.split``.  The two must
agree byte for byte in every view and report, and only the layers that read
the stack may form it.  Once the split has read a copy's stack, no layer
reads it again: the reports of a copy whose stack is then poisoned with nan
are those of an untouched copy.
"""

import contextlib
import copy
import io
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from umeb import cli, constructions
from umeb.constructions import (
    BravyiSmolin3,
    Lift,
    UMEBCandidate,
    bravyi_smolin_3,
    left_factors,
    lift,
    load_umeb,
    save_umeb,
    umeb_6,
    weyl_family,
)
from umeb.linalg import unitarity_residual
from umeb.spectral import signature
from umeb.verification import search_extension, structural_certify, verify_axioms

from test_spectral import _lift_at_the_threshold
from test_verification import TAMPERED, TAMPERED_VERDICTS, TOWERS, _tower, _variant

_STACK = {"matrices", "elements"}


def _dense(c):
    """The stack of ``c`` in a candidate that holds no factors."""
    return UMEBCandidate(c.dim, c.matrices.copy(), c.provenance, c.exact_cos_theta)


def _reports(c):
    """The JSON texts of the axiom report, the signature and the certificate of ``c``."""
    return [json.dumps(f(c).to_dict()) for f in (verify_axioms, signature, structural_certify)]


def _assert_held_matches_dense(c):
    assert c._right_factors is not None and not _STACK & set(vars(c))
    reports = _reports(c)
    dense = _dense(c)
    assert dense._right_factors is None
    held, split = c.factored, dense.factored
    assert held.layout == split.layout and not held.self_lift and not split.self_lift
    for name in ("distinct", "kind", "index"):
        a, b = getattr(held, name), getattr(split, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert c.unitarity == dense.unitarity
    assert held.tiles.tobytes() == split.tiles.tobytes()
    _assert_tiles_match_the_stack(dense)
    assert reports == _reports(dense)
    assert c.matrices.tobytes() == dense.matrices.tobytes()


def _assert_saved_copy_matches_dense(c, path):
    save_umeb(c, path)
    back = load_umeb(path)
    assert back._right_factors.tobytes() == c._right_factors.tobytes()
    _assert_held_matches_dense(back)


def _stack_tiles(c):
    """Reference reader: the distinct nonzero d x d tiles of the stored stack
    of ``c``, read from the stack, one per distinct pair (f, Y_k) in element
    order.  Row-tile a of F_k (x) Y_k sits in the column of row a's one
    nonzero entry f of F_k."""
    view = c.factored
    q, d = view.layout.q, view.layout.base_dim
    left = left_factors(q)[view.index]
    cols = np.argmax(left != 0, axis=2)
    blocks = c.matrices.reshape(len(c), q, d, q, d)
    tiles = {}
    for k, a in itertools.product(range(len(c)), range(q)):
        key = (left[k, a, cols[k, a]].tobytes(), int(view.kind[k]))
        tiles.setdefault(key, blocks[k, a, :, cols[k, a], :])
    return np.array(list(tiles.values()))


def _by_value(tiles):
    """The tiles sorted by value, each zero read as +0.0."""
    reals = (tiles + 0.0).reshape(len(tiles), -1).view(np.float64)
    return tiles[np.lexsort(reals.T[::-1])]


def _assert_tiles_match_the_stack(c):
    """The view's formed tiles are the stack's in value, with the stack's
    unitarity residual bit for bit; for a split set, the Weyl sector's
    diagonal blocks, which its certificate takes as 0, are +-0."""
    view = c.factored
    formed, read = view.tiles, _stack_tiles(c)
    assert formed.shape == read.shape and np.array_equal(_by_value(formed), _by_value(read))
    assert repr(unitarity_residual(formed)) == repr(unitarity_residual(read))
    if not view.self_lift:
        n = view.layout.weyl_count
        diagonal = np.diagonal(view.layout.blocks(c.matrices)[:n], axis1=1, axis2=3)
        assert not np.any(diagonal)


@pytest.mark.parametrize("q", range(1, 13))
def test_the_weyl_sector_left_factors_have_zero_diagonals(q):
    assert not np.any(np.diagonal(left_factors(q)[:q * (q - 1)], axis1=1, axis2=2))


@pytest.mark.parametrize("stored_passes", [True, False])
def test_tiles_at_the_threshold_match_the_stack(stored_passes):
    _assert_tiles_match_the_stack(_lift_at_the_threshold(stored_passes))


def _weyl_subset(q):
    # Six Weyl operators labelled as the d = 3 base: extendible, yet lifted.
    return lift(UMEBCandidate(3, weyl_family(3).matrices[:6], BravyiSmolin3()), q)


_SETS = (
    [(f"bs3_q{q}", lambda q=q: lift(bravyi_smolin_3(), q)) for q in range(1, 9)]
    + [(f"umeb6_q{q}", lambda q=q: lift(umeb_6(), q)) for q in range(1, 5)]
    + [(f"weyl_subset_q{q}", lambda q=q: _weyl_subset(q)) for q in (2, 3)]
)


@pytest.mark.parametrize("make", [make for _, make in _SETS], ids=[name for name, _ in _SETS])
def test_held_factors_match_a_dense_copy(make, tmp_path):
    _assert_held_matches_dense(make())
    _assert_saved_copy_matches_dense(make(), tmp_path / "m.json")


@settings(max_examples=25, deadline=None)
@given(**TOWERS)
def test_held_factors_of_towers_match_a_dense_copy(tmp_path_factory, d, q, outer, kind, count,
                                                   seed):
    _assert_held_matches_dense(_tower(d, q, outer, kind, count, seed))
    path = tmp_path_factory.mktemp("tower") / "m.json"
    _assert_saved_copy_matches_dense(_tower(d, q, outer, kind, count, seed), path)


def _certificate_read_from_the_stack(c):
    """The certificate of ``c`` with its slices read from its stored stack, as
    a set its layout does not split is read."""
    stacked = _dense(c)
    verify_axioms(stacked)  # the held report, whose source stays "factors"
    vars(stacked)["factored"] = replace(stacked.factored, self_lift=True)
    return json.dumps(structural_certify(stacked).to_dict())


def _assert_certificate_from_factors_matches_the_stack(c):
    assert not c.factored.self_lift
    assert json.dumps(structural_certify(c).to_dict()) == _certificate_read_from_the_stack(c)


_SPLIT_TAMPERED = [name for name, (_, splits) in TAMPERED_VERDICTS.items() if splits]


@pytest.mark.parametrize(
    "make",
    [make for _, make in _SETS] + [lambda name=name: _variant(*TAMPERED[name])
                                   for name in _SPLIT_TAMPERED],
    ids=[name for name, _ in _SETS] + [f"tampered_{name}" for name in _SPLIT_TAMPERED],
)
def test_certificate_from_the_factors_matches_the_stack_reading(make):
    _assert_certificate_from_factors_matches_the_stack(make())


@settings(max_examples=25, deadline=None)
@given(**TOWERS)
def test_certificate_of_towers_from_the_factors_matches_the_stack_reading(d, q, outer, kind,
                                                                          count, seed):
    _assert_certificate_from_factors_matches_the_stack(_tower(d, q, outer, kind, count, seed))


def _search(c):
    return search_extension(c, 3, 30, seed=0)


def _outcomes(c, reports):
    """The JSON of each report of ``c``, or the error it raises."""
    found = []
    for report in reports:
        try:
            found.append(json.dumps(report(c).to_dict()))
        except ValueError as exc:
            found.append(f"ValueError: {exc}")
    return found


def _assert_the_split_is_the_last_read_of_the_stack(make):
    c = make()
    assert c._right_factors is None and not c.factored.self_lift
    _assert_tiles_match_the_stack(c)
    poisoned = make()
    poisoned.factored  # the split reads the stack
    for name in ("matrices", "elements"):
        object.__setattr__(poisoned, name, np.broadcast_to(np.complex128(np.nan), c.matrices.shape))
    reports = [verify_axioms, structural_certify, signature, _search]
    want = _outcomes(c, reports)
    if '"verdict": "ExtensionFound"' in want[-1]:
        # An extension is re-verified against the stored stack, on purpose.
        reports, want = reports[:-1], want[:-1]
    assert _outcomes(poisoned, reports) == want


_STACK_SETS = (
    [("umeb_6", umeb_6)]
    + [(f"dense_{name}", lambda make=make: _dense(make())) for name, make in _SETS]
    + [(f"tampered_{name}", lambda name=name: _variant(*TAMPERED[name]))
       for name in _SPLIT_TAMPERED]
)


@pytest.mark.parametrize("make", [make for _, make in _STACK_SETS],
                         ids=[name for name, _ in _STACK_SETS])
def test_the_split_is_the_last_read_of_the_stack(make):
    _assert_the_split_is_the_last_read_of_the_stack(make)


@settings(max_examples=25, deadline=None)
@given(**TOWERS)
def test_the_split_is_the_last_read_of_the_stack_of_towers(d, q, outer, kind, count, seed):
    _assert_the_split_is_the_last_read_of_the_stack(
        lambda: _dense(_tower(d, q, outer, kind, count, seed)))


def test_verify_and_signature_form_no_stack(tmp_path):
    c = lift(bravyi_smolin_3(), 8)
    assert not {"factored", *_STACK} & set(vars(c))
    path = tmp_path / "m.json"
    save_umeb(c, path)
    for held in (c, load_umeb(path)):
        verify_axioms(held)
        signature(held)
        assert len(held) == 552 and not _STACK & set(vars(held))
        # The first read forms the stack once and holds it, read-only.
        assert held.matrices is held.matrices and not held.matrices.flags.writeable
        assert len(held.elements) == 552 and np.shares_memory(held.elements[0], held.matrices)


def test_a_lift_beyond_the_file_cap_is_held_and_saved_as_its_stack(tmp_path, monkeypatch):
    # A file of factors beyond _MAX_REBUILT_BYTES would not load, so the save
    # writes the stack; the set still holds its factors, and no report forms
    # the stack.
    dense = _dense(lift(bravyi_smolin_3(), 2))
    want, ref, path = _reports(dense), tmp_path / "dense.json", tmp_path / "m.json"
    save_umeb(dense, ref)
    monkeypatch.setattr(constructions, "_MAX_REBUILT_BYTES", dense.matrices.nbytes - 1)
    formed, products = [], Lift.products
    monkeypatch.setattr(Lift, "products",
                        lambda layout, right: formed.append(layout) or products(layout, right))
    c = lift(bravyi_smolin_3(), 2)
    assert _reports(c) == want
    assert formed == [] and c._right_factors is not None and not _STACK & set(vars(c))
    save_umeb(c, path)
    assert path.read_bytes() == ref.read_bytes()
    back = load_umeb(path)
    assert back._right_factors is None and back.matrices.tobytes() == dense.matrices.tobytes()


def test_no_command_forms_the_stack_of_a_factored_file(tmp_path, monkeypatch):
    # Whole stacks only: a first read of matrices or elements, or a call of
    # Lift.products.  A complement basis or a base sector formed from some
    # rows' factors is not a stack.
    formed = []
    products, read = Lift.products, UMEBCandidate.__getattr__

    def counted_read(c, name):
        if name in _STACK:
            formed.append(name)
        return read(c, name)

    monkeypatch.setattr(Lift, "products",
                        lambda layout, right: formed.append(layout) or products(layout, right))
    monkeypatch.setattr(UMEBCandidate, "__getattr__", counted_read)
    base, lifted, other = (tmp_path / name for name in ("bs3.json", "l.json", "u.json"))
    save_umeb(bravyi_smolin_3(), base)
    save_umeb(lift(umeb_6(), 2), other)
    steps = (
        ["lift", base, "-q", "4", "-o", lifted],
        ["verify", lifted],
        ["spectral", lifted],
        ["compare", lifted, other],
        ["certify", lifted],
        ["search", lifted, "--restarts", "2", "--iters", "5"],
    )
    for argv in steps:
        formed.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([str(a) for a in argv] + ["--json"]) == 0, argv
        assert formed == [], argv
    assert all('"right_factors"' in path.read_text() for path in (lifted, other))


def test_a_held_set_forms_its_stack_for_no_other_attribute():
    c = lift(bravyi_smolin_3(), 2)
    with pytest.raises(AttributeError, match="no attribute 'stack'"):
        c.stack
    twin = copy.copy(c)
    assert not _STACK & (set(vars(c)) | set(vars(twin)))
    assert twin.matrices.tobytes() == c.matrices.tobytes()
