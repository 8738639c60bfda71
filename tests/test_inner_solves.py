"""The table of inner solves, linop.INNER_SOLVES: every reader of an
inner-solve kind (the spec parser, the builder, the sweep driver and the
CLI help) takes it from the one row."""

import pytest
import scipy.sparse as sp

from irksolve import cli
from irksolve.experiments import ExperimentSpec, run_inner_sweep
from irksolve.linop import (INNER_SOLVES, ExactFFT, IdentityMass,
                            InnerSolve, SparseOperator,
                            build_inner_preconditioner, parse_inner,
                            shifted_operator)
from irksolve.spatial import GridSpec, build_advdiff


@pytest.mark.parametrize("kind", INNER_SOLVES)
def test_every_spelling_parses_to_its_kind_in_any_case(kind):
    for name in (kind, *INNER_SOLVES[kind].spellings):
        for spelling in (name, name.upper(), name.title()):
            assert parse_inner(spelling) == (kind, {})


def _inner_help():
    _parser, actions = cli._build_parser()
    return next(a.help for a in actions["run"] if a.dest == "inner")


@pytest.mark.parametrize("first", ["sweeps", "levels"])
def test_one_new_row_reaches_every_reader(monkeypatch, first):
    # a new inner solve is one row: the parser, the builder, the --inner
    # help and (for a first parameter named sweeps) the sweep driver
    # take it with no other edit
    built = []

    def build(op, **params):
        built.append(params)
        return ExactFFT(op)

    monkeypatch.setitem(INNER_SOLVES, "throwaway",
                        InnerSolve(build, {first: int}, ("tw",)))
    assert parse_inner("TW:3") == ("throwaway", {first: 3})
    grid = GridSpec(dim=1, n=8)
    op = shifted_operator(2.0, 0.1, IdentityMass(grid.size),
                          build_advdiff(grid, 0.5, 0.5, 2))
    assert type(build_inner_preconditioner("throwaway", op, **{first: 2})) \
        is ExactFFT
    assert built == [{first: 2}]
    assert f"throwaway/tw[:{first}]" in _inner_help()

    spec = ExperimentSpec(problem="advdiff1d", family="gauss", stages=2,
                          grids=(16,), t_final=0.1, inner="tw")
    if first != "sweeps":
        with pytest.raises(ValueError, match="needs a relaxation inner kind"):
            run_inner_sweep(spec, [1, 2])
        return
    rows = run_inner_sweep(spec, [1, 2])
    assert [k for k, _rec in rows] == [1, 2]
    assert {p["sweeps"] for p in built[1:]} == {1, 2}
    assert all(f.converged for _k, rec in rows for f in rec.factors)


def test_a_dropped_row_is_gone_from_every_reader(monkeypatch):
    monkeypatch.delitem(INNER_SOLVES, "jacobi")
    with pytest.raises(ValueError, match="unknown inner preconditioner spec"):
        parse_inner("jacobi:2")
    op = SparseOperator(sp.identity(8, format="csr"))
    with pytest.raises(ValueError, match="unknown preconditioner kind"):
        build_inner_preconditioner("jacobi", op)
    assert "jacobi" not in _inner_help()
