"""The checks of the library and of the CLI that no other test
reaches: each call below trips one check, which raises its own error
with its own message, or exits 2 with it on stderr."""

import re

import pytest

from cycloschur import abacus, groups, partitions, schur, weights
from cycloschur.cli import main
from cycloschur.partitions import Multipartition, Partition
from cycloschur.scanning import scan

TWO = Multipartition([(1,), ()])
ROOT = schur.RootOfUnity(4, 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: abacus.partition_from_beta((0,), 0), ValueError,
                     "window m must be positive", id="partition_from_beta-window"),
        pytest.param(lambda: abacus.partition_from_beta((), 1), ValueError,
                     "empty beta tuple", id="partition_from_beta-empty"),
        pytest.param(lambda: abacus.multi_beta(TWO, (0,)), ValueError,
                     "multicharge length must equal the level", id="multi_beta-charges"),
        pytest.param(lambda: abacus.charged_hooks_direct(TWO, (0,)), ValueError,
                     "multicharge length must equal the level", id="charged_hooks_direct-charges"),
        # 1 is the top bead of component 0 of TWO
        pytest.param(lambda: abacus.n_k(abacus.multi_beta(TWO, (0, 0)), 0, 1, -1), ValueError,
                     "k must be nonnegative", id="n_k-negative-k"),
        pytest.param(lambda: abacus.hook_table((5,), 0, 3, 2), ValueError,
                     "beads must lie in [0, 3]", id="hook_table-bead-range"),
        pytest.param(lambda: abacus.normalize_multicharge((0, 1), 1), ValueError,
                     "e must be at least 2", id="normalize_multicharge-e"),
        pytest.param(lambda: groups.glpn_defect(TWO, 1, 1, schur.CycloSpec(2, (0, 0), 1, ROOT)),
                     ValueError, "level must equal p*d", id="glpn_defect-level"),
        pytest.param(lambda: groups.glpn_defect(TWO, 1, 2, schur.CycloSpec(1, (0,), 1, ROOT)),
                     ValueError, "specialisation level must match the multipartition",
                     id="glpn_defect-spec-level"),
        pytest.param(lambda: groups.sigma_schur_invariance(TWO, 1, 1, (0, 0)), ValueError,
                     "level must equal p*d", id="sigma_schur_invariance-level"),
        pytest.param(lambda: groups.sigma_schur_invariance(TWO, 1, 2, (0,)), ValueError,
                     "multicharge length must equal the level", id="sigma_schur_invariance-charges"),
        pytest.param(lambda: groups.yokonuma_defect(TWO, 2, 1, (0, 0), 2), ValueError,
                     "one charge per package component required", id="yokonuma_defect-charges"),
        pytest.param(lambda: groups.yokonuma_block_key(TWO, 1, 1, (0,), 2), ValueError,
                     "level must equal d*l", id="yokonuma_block_key-level"),
        pytest.param(lambda: groups.yokonuma_block_key(TWO, 2, 1, (0, 0), 2), ValueError,
                     "one charge per package component required", id="yokonuma_block_key-charges"),
        pytest.param(lambda: Multipartition([]), ValueError,
                     "a multipartition has at least one component", id="Multipartition-empty"),
        pytest.param(lambda: partitions.partitions_of(-1), ValueError,
                     "rank must be nonnegative", id="partitions_of-rank"),
        pytest.param(lambda: next(partitions.enumerate_multipartitions(0, 1)), ValueError,
                     "level must be at least 1", id="enumerate_multipartitions-level"),
        pytest.param(lambda: next(partitions.enumerate_multipartitions(1, -1)), ValueError,
                     "rank must be nonnegative", id="enumerate_multipartitions-rank"),
        pytest.param(lambda: partitions.count_multipartitions(0, 1), ValueError,
                     "level must be at least 1", id="count_multipartitions-level"),
        pytest.param(lambda: scan(2, 2, 2, (0,)), ValueError,
                     "multicharge length must equal the level", id="scan-charges"),
        pytest.param(lambda: schur.specialize_integer(TWO, (0,)), ValueError,
                     "multicharge length must equal the level", id="specialize_integer-charges"),
        pytest.param(lambda: schur.defect_integer(TWO, (0, 0), 0), ValueError,
                     "e must be positive", id="defect_integer-e"),
        pytest.param(lambda: schur.defect_integer(TWO, (0,), 2), ValueError,
                     "multicharge length must equal the level", id="defect_integer-charges"),
        pytest.param(lambda: schur.dipper_mathas_classes([ROOT], ROOT, -1), ValueError,
                     "rank must be nonnegative", id="dipper_mathas_classes-rank"),
        pytest.param(lambda: schur.defect_general(TWO, schur.CycloSpec(1, (0,), 1, ROOT)),
                     ValueError, "multipartition level must match the specialisation",
                     id="defect_general-level"),
        # c = (5, 0): 5 - ((5 - 0)^2 + (0 - 5)^2) / 2 = -20
        pytest.param(lambda: weights.residue_weight((5, 0), (0,)), ArithmeticError,
                     "weight must be nonnegative", id="residue_weight-negative"),
        pytest.param(lambda: weights.ecore_classical(Partition((1,)), 1), ValueError,
                     "e must be at least 2", id="ecore_classical-e"),
    ],
)
def test_library_guard_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["defect", "1|0", "--roots", "x", "--rcharges", "0,0"],
                     "bad --roots 'x': expected N,t", id="defect-bad-roots"),
        pytest.param(["defect", "1|0", "--roots", "4,1", "--rcharges", "0"],
                     "--rcharges expects 2 charges, got 1", id="defect-rcharges-count"),
        pytest.param(["defect", "1|0", "--charge", "0,1"],
                     "--e is required without --roots and --rcharges", id="defect-without-e"),
        pytest.param(["dm-classes", "--roots", "x", "--params", "0", "--u", "1", "--n", "1"],
                     "--roots expects the ambient order N", id="dm-classes-bad-roots"),
        pytest.param(["yokonuma", "1|1", "--d", "1", "--l", "1", "--e", "2"],
                     "level must equal d*l", id="yokonuma-level"),
        pytest.param(["glpn", "1|1", "--d", "1", "--p", "1", "--roots", "4,1", "--rcharges", "0"],
                     "level must equal p*d", id="glpn-level"),
    ],
)
def test_cli_guard_exits_2_with_its_message(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_ecore_abacus_guards_the_charge_of_its_runner(monkeypatch):
    # a single charge-0 runner keeps its beads, so its core has charge 0;
    # a reduction that read back another charge is caught
    real = weights.core
    monkeypatch.setattr(
        weights, "core", lambda mp, charges, e: real(mp, charges, e)._replace(charges=(1,))
    )
    with pytest.raises(ArithmeticError, match="^a single runner must keep its charge$"):
        weights.ecore_abacus(Partition((2,)), 2)
