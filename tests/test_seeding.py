"""The closed-form seeding against numpy's own `default_rng(seed)`.

The stack generators and their one-element forms both draw through
`oba_lab._seeding`, so comparing them with each other cannot see a drift from
numpy; these tests compare with numpy directly.
"""

import random
import warnings

import numpy as np
import pytest

from oba_lab import random_cone_element, random_strict_nilpotent, random_unitary
from oba_lab import algebra, rigidity, suites
from oba_lab._seeding import _seed_words, seeded_draws
from oba_lab.algebra import random_cone_stack

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128 - 1)


def _default_trial_seeds(seed: int, trials: int) -> set[int]:
    """Every trial seed `axioms` and `rigidity` draw from at `trials` trials.

    Axiom rows 0-6 draw one generator per trial, the pair rows (additivity,
    multiplicativity, normality) two; row 7 draws none.  Rigidity rows 0 and 1
    draw one per trial, and unitary_invariance draws streams 3 and 4 for
    trials // 10 trials.
    """
    per_trial = (2, 1, 2, 1, 2, 1, 1)
    streams = [(prop, t) for prop, k in enumerate(per_trial) for t in range(k * trials)]
    streams += [(prop, t) for prop in (0, 1) for t in range(trials)]
    streams += [(prop, t) for prop in (3, 4) for t in range(max(1, trials // 10))]
    return {suites._trial_seed(seed, prop, t) for prop, t in streams}


def test_trial_seed_enumeration_matches_the_suites(monkeypatch):
    """The groups run inline, where the recording patch sees them: the same
    per-group loop a forked worker runs."""
    drawn = set()

    def recording(seeds, normals, uniforms=0):
        seeds = list(seeds)
        drawn.update(seeds)
        return seeded_draws(seeds, normals, uniforms)

    for module in (algebra, rigidity, suites):
        monkeypatch.setattr(module, "seeded_draws", recording)
    monkeypatch.setattr(suites, "_cpu_count", lambda: 1)
    suites.run_axiom_suite(trials=70, seed=42)
    suites.run_rigidity_suite(trials=70, seed=42)
    assert drawn == _default_trial_seeds(42, 70)


def test_words_match_numpy():
    """The block hash gives each seed's `SeedSequence` words, byte for byte;
    numpy seeds PCG64 from them itself."""
    rand = random.Random(12)
    seeds = set(EDGE_SEEDS) | _default_trial_seeds(42, 10_000)
    seeds |= {rand.getrandbits(bits) for bits in range(1, 129) for _ in range(8)}
    seeds = sorted(seeds)
    assert len(seeds) >= 100_000
    words = _seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words, strict=True):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.tobytes() == expected.tobytes(), seed


DRAW_SEEDS = list(EDGE_SEEDS) + [random.Random(3).getrandbits(63) for _ in range(200)]


@pytest.mark.parametrize(("normals", "uniforms"), [(5, 2), (18, 0), (1, 1)])
def test_draws_match_a_fresh_default_rng(normals, uniforms):
    gauss, unit = seeded_draws(DRAW_SEEDS, normals, uniforms)
    assert gauss.shape == (len(DRAW_SEEDS), normals)
    assert unit.shape == (len(DRAW_SEEDS), uniforms)
    for seed, gauss_row, unit_row in zip(DRAW_SEEDS, gauss, unit, strict=True):
        fresh = np.random.default_rng(seed)
        assert gauss_row.tobytes() == fresh.standard_normal(normals).tobytes(), seed
        assert unit_row.tobytes() == fresh.random(uniforms).tobytes(), seed


def test_affine_uniform_is_generator_uniform():
    """The nilpotent stack's peak fraction 0.6 + 0.4 u is bitwise `uniform(0.6, 1.0)`."""
    seeds = DRAW_SEEDS + [random.Random(5).getrandbits(64) for _ in range(2000)]
    _, unit = seeded_draws(seeds, 4, 1)
    for seed, u in zip(seeds, unit[:, 0].tolist(), strict=True):
        fresh = np.random.default_rng(seed)
        fresh.standard_normal(4)
        assert 0.6 + (1.0 - 0.6) * u == fresh.uniform(0.6, 1.0), seed


def test_a_row_is_the_same_alone_and_in_a_block():
    """No state carries over from one seed to the next, in either order."""
    block = seeded_draws(DRAW_SEEDS, 7, 3)
    backward = seeded_draws(DRAW_SEEDS[::-1], 7, 3)
    for i, seed in enumerate(DRAW_SEEDS):
        alone = seeded_draws([seed], 7, 3)
        for whole, reverse, row in zip(block, backward, alone):
            assert whole[i].tobytes() == reverse[-1 - i].tobytes() == row[0].tobytes(), seed


def test_integer_seed_types_agree():
    ints = [0, 5, 2**40, 2**63 - 1]
    as_int64 = random_cone_stack(np.array(ints, dtype=np.int64), 3, 1.0)
    as_uint64 = random_cone_stack(np.array(ints, dtype=np.uint64), 3, 1.0)
    as_python = random_cone_stack(ints, 3, 1.0)
    for a, b, c in zip(as_int64, as_uint64, as_python):
        assert a.tobytes() == b.tobytes() == c.tobytes()


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: random_cone_element(seed, 3, 1.0).op,
        lambda seed: random_strict_nilpotent(seed, 3, 1.0),
        lambda seed: random_unitary(seed, 3),
    ],
    ids=["cone", "nilpotent", "unitary"],
)
class TestSeedContract:
    def test_negative_seed_is_a_value_error(self, draw):
        with pytest.raises(ValueError, match="seed must be"):
            draw(-1)

    @pytest.mark.parametrize("seed", [5.0, np.float64(5.0), None, "5"])
    def test_non_integer_seed_is_a_type_error(self, draw, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            draw(seed)

    def test_seeds_up_to_four_words_are_accepted(self, draw):
        for seed in (2**64, 2**128 - 1):
            assert draw(seed).entries.tobytes() == draw(seed).entries.tobytes()

    def test_seed_beyond_four_words_names_the_bound(self, draw):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
            draw(2**128)

    def test_no_numerical_warning(self, draw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in EDGE_SEEDS:
                draw(seed)
