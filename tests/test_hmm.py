import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physkey.errors import CalibrationError, ImpossibleObservationError
from physkey.channel import calibrate_to_reference_rates, family_config
from physkey.hmm import (MAX_LEVELS, SLICE_LEN, HmmModel, _recursions,
                         conditional_min_entropy_given_obs, entropy_profile_batch,
                         estimate_avg_conditional_min_entropy,
                         exact_avg_conditional_min_entropy, fit_hmm_from_traces,
                         fit_linear_growth, forward_likelihood, obs_from_values,
                         level_states, slice_experiments, validate_model,
                         viterbi_max_joint)
from physkey.traces import make_trace

from .oracles import (broadcast_recursions, brute_exact_avg_bits, brute_forward,
                      brute_viterbi, memoryless_exact_bits, random_model, sample_hmm,
                      scalar_forward_log2, scalar_viterbi_log2)


@pytest.fixture()
def two_state():
    return HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.5, 0.5],
                    trans=[[0.9, 0.1], [0.1, 0.9]], emit=[[0.8, 0.2], [0.2, 0.8]])


@pytest.fixture()
def uniform2():
    return HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.5, 0.5],
                    trans=[[0.5, 0.5], [0.5, 0.5]], emit=[[0.5, 0.5], [0.5, 0.5]])


def drawn_model(data, k, m):
    """A Hypothesis-drawn model: rows of integer weights 0..3, zeros
    included, none all zero."""
    def rows(r, c):
        weights = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=c,
                                                       max_size=c).filter(any),
                                              min_size=r, max_size=r)), dtype=float)
        return weights / weights.sum(axis=1, keepdims=True)

    return HmmModel(states=tuple(range(k)), symbols=tuple(range(m)),
                    pi=rows(1, k)[0], trans=rows(k, k), emit=rows(k, m))


def permutation_model():
    # deterministic emissions: the state path is readable from the symbols
    return HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.3, 0.7],
                    trans=[[0.6, 0.4], [0.2, 0.8]], emit=[[1.0, 0.0], [0.0, 1.0]])


class TestValidate:
    def test_degenerate_ok(self):
        one = HmmModel(states=(0,), symbols=(0,), pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        assert validate_model(one) == []

    def test_non_stochastic_row(self, two_state):
        bad = HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.5, 0.5],
                       trans=[[0.5, 0.4], [0.1, 0.9]], emit=two_state.emit)
        violations = validate_model(bad)
        assert any("row 0 of trans sums to 0.9" in v for v in violations)

    def test_negative_entry(self, two_state):
        bad = HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.5, 0.5],
                       trans=two_state.trans, emit=[[1.1, -0.1], [0.2, 0.8]])
        violations = validate_model(bad)
        assert any("negative" in v for v in violations)

    @staticmethod
    def row_checks(model):
        # validate_model's probability checks as a per-row loop
        out = []
        for name in ("pi", "trans", "emit"):
            mat = getattr(model, name)
            if np.isnan(mat).any():
                out.append(f"{name} has a NaN probability")
            if np.any(mat < 0):
                out.append(f"{name} has a negative probability")
            if np.any(mat > 1):
                out.append(f"{name} has an entry > 1")
            sums = mat.sum(axis=1) if mat.ndim == 2 else [mat.sum()]
            for i, s in enumerate(sums):
                if abs(s - 1.0) > 1e-9:
                    where = f"row {i} of {name}" if mat.ndim == 2 else name
                    out.append(f"{where} sums to {s:.12g}")
        return out

    @pytest.mark.parametrize("case", ["one_row", "several_rows", "nan", "pi"])
    def test_messages_match_per_row_loop(self, case):
        trans = np.full((4, 4), 0.25)
        emit = np.eye(4)
        pi = np.full(4, 0.25)
        if case == "one_row":
            trans[2, 1] += 1e-6
        elif case == "several_rows":
            trans[0] = [0.5, 0.4, 0.0, 0.0]
            trans[3, 3] = 0.3
            emit[1] = [0.0, 1.5, -0.5, 0.2]
        elif case == "nan":
            emit[2, 0] = np.nan
        else:
            pi[0] = 0.2
        model = HmmModel(states=(0, 1, 2, 3), symbols=(0, 1, 2, 3), pi=pi, trans=trans,
                         emit=emit)
        violations = validate_model(model)
        assert violations == self.row_checks(model)
        expected = {"one_row": ["row 2 of trans sums to 1.000001"],
                    "several_rows": ["row 0 of trans sums to 0.9",
                                     "row 3 of trans sums to 1.05",
                                     "emit has a negative probability",
                                     "emit has an entry > 1", "row 1 of emit sums to 1.2"],
                    "nan": ["emit has a NaN probability"],
                    "pi": ["pi sums to 0.95"]}[case]
        assert violations == expected

    def test_dimension_mismatch(self, two_state):
        bad = HmmModel(states=(0, 1), symbols=(0, 1), pi=[1.0],
                       trans=two_state.trans, emit=two_state.emit)
        assert any("pi has shape" in v for v in validate_model(bad))


class TestModelIdentity:
    def test_equal_models_compare_and_hash_by_identity(self, two_state):
        twin = HmmModel(states=two_state.states, symbols=two_state.symbols,
                        pi=two_state.pi, trans=two_state.trans, emit=two_state.emit)
        assert two_state == two_state
        assert not two_state == twin
        assert two_state != twin
        assert len({two_state, twin, two_state}) == 2


class TestViterbi:
    def test_deterministic_chain(self):
        model = HmmModel(states=(5,), symbols=(3,), pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        assert viterbi_max_joint(model, [0] * 6) == 0.0

    def test_two_state_oo(self, two_state):
        lp = viterbi_max_joint(two_state, [0, 0])
        assert 2 ** lp == pytest.approx(0.288, rel=1e-12)

    def test_two_state_o1o2_matches_enumeration(self, two_state):
        obs = [0, 1]
        lp = viterbi_max_joint(two_state, obs)
        p_ref, _ = brute_viterbi(two_state, obs)
        assert 2 ** lp == pytest.approx(p_ref, rel=1e-12)

    def test_impossible_sequence(self):
        model = permutation_model()
        broken = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=model.pi,
                          trans=model.trans,
                          emit=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ImpossibleObservationError, match="impossible observation"):
            viterbi_max_joint(broken, [0, 2])

    def test_random_models_match_enumeration(self, rng):
        for _ in range(40):
            k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            model = random_model(rng, k, m)
            obs = rng.integers(0, m, size=n)
            lp = viterbi_max_joint(model, obs)
            p_ref, _ = brute_viterbi(model, obs)
            assert 2 ** lp == pytest.approx(p_ref, rel=1e-9)


class TestForward:
    def test_deterministic_chain(self):
        model = HmmModel(states=(5,), symbols=(3,), pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        assert forward_likelihood(model, [0] * 4) == 0.0

    def test_two_state_oo(self, two_state):
        lp = forward_likelihood(two_state, [0, 0])
        assert 2 ** lp == pytest.approx(0.322, rel=1e-12)

    def test_single_step_formula(self, rng):
        for _ in range(20):
            model = random_model(rng, 3, 3)
            q = int(rng.integers(0, 3))
            lp = forward_likelihood(model, [q])
            assert 2 ** lp == pytest.approx(float(model.pi @ model.emit[:, q]), rel=1e-12)

    def test_long_sequence_no_underflow(self, two_state, rng):
        obs = rng.integers(0, 2, size=10_000)
        lp = forward_likelihood(two_state, obs)
        assert math.isfinite(lp) and lp < 0

    def test_random_models_match_enumeration(self, rng):
        for _ in range(40):
            k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            model = random_model(rng, k, m)
            obs = rng.integers(0, m, size=n)
            lp = forward_likelihood(model, obs)
            assert 2 ** lp == pytest.approx(brute_forward(model, obs), rel=1e-9)

    def test_total_probability_sums_to_one(self, rng):
        # sum over all observation sequences of forward P equals 1
        for _ in range(5):
            model = random_model(rng, 2, 3)
            n = 5
            total = 0.0
            for idx in range(3 ** n):
                obs = [(idx // 3 ** t) % 3 for t in range(n)]
                total += 2 ** forward_likelihood(model, obs)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestConditionalEntropy:
    def test_deterministic_emissions_zero_bits(self, rng):
        model = permutation_model()
        for _ in range(10):
            obs = rng.integers(0, 2, size=12)
            assert conditional_min_entropy_given_obs(model, obs) == 0.0

    def test_two_state_value(self, two_state):
        h = conditional_min_entropy_given_obs(two_state, [0, 0])
        assert h == pytest.approx(-math.log2(0.288 / 0.322), rel=1e-12)
        assert h == pytest.approx(0.161, abs=5e-4)

    def test_uniform_model_gives_n_bits(self, uniform2):
        h = conditional_min_entropy_given_obs(uniform2, [0, 1, 0])
        assert h == pytest.approx(3.0, abs=1e-12)

    def test_never_negative(self, rng):
        for _ in range(50):
            model = random_model(rng, 3, 2)
            obs = rng.integers(0, 2, size=int(rng.integers(1, 9)))
            assert conditional_min_entropy_given_obs(model, obs) >= 0.0

    def test_impossible_sequence_names_its_step(self):
        # no state emits symbol 2, which first appears at step 1
        model = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=[0.3, 0.7],
                         trans=[[0.6, 0.4], [0.2, 0.8]],
                         emit=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ImpossibleObservationError,
                           match="impossible observation sequence: zero probability at step 1"
                           ) as info:
            conditional_min_entropy_given_obs(model, [0, 2, 1])
        assert info.value.row == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_raises_where_a_prefix_first_vanishes(self, data):
        # the earliest step at which some row's prefix has brute-force
        # probability 0, and the first such row; no raise when none does
        k, m, n, r = (data.draw(st.integers(1, hi)) for hi in (3, 3, 6, 4))
        model = drawn_model(data, k, m)
        obs = np.array(data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n,
                                                   max_size=n), min_size=r, max_size=r)))
        first = [next((t for t in range(n) if brute_forward(model, row[:t + 1]) == 0.0), n)
                 for row in obs]
        step = min(first)
        if step == n:
            _recursions(model, obs, [n])
            return
        with pytest.raises(ImpossibleObservationError,
                           match=f"^impossible observation sequence: zero probability at "
                                 f"step {step}$") as info:
            _recursions(model, obs, [n])
        assert info.value.row == first.index(step)

    def test_equals_batch_row(self, rng):
        # a matrix product over more rows may sum in another order
        for _ in range(20):
            model = random_model(rng, 3, 4)
            obs = rng.integers(0, 4, size=(5, int(rng.integers(1, 30))))
            batch = entropy_profile_batch(model, obs, [obs.shape[1]])[:, 0]
            for row, want in zip(obs, batch):
                got = conditional_min_entropy_given_obs(model, row)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestExactAverage:
    def test_deterministic_emissions(self):
        assert exact_avg_conditional_min_entropy(permutation_model(), 5) == 0.0

    def test_two_state_n2_matches_joint_table(self, two_state):
        got = exact_avg_conditional_min_entropy(two_state, 2)
        assert got == pytest.approx(brute_exact_avg_bits(two_state, 2), abs=1e-9)
        assert got == pytest.approx(-math.log2(0.72), abs=1e-12)

    def test_uniform_three_bits(self, uniform2):
        assert exact_avg_conditional_min_entropy(uniform2, 3) == pytest.approx(3.0, abs=1e-12)

    def test_guard(self, uniform2):
        with pytest.raises(ValueError, match="enumeration too large"):
            exact_avg_conditional_min_entropy(uniform2, 21)

    def test_block_guard(self):
        # 2^19 sequences pass the m^n guard, but the last step would hold two
        # (256, 256 * 2^18) float64 blocks, 137 GB each
        k = 256
        model = HmmModel(states=tuple(range(k)), symbols=(0, 1), pi=np.full(k, 1 / k),
                         trans=np.full((k, k), 1 / k), emit=np.full((k, 2), 0.5))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^enumeration too large: its last step holds "
                                                 r"two \(256, 256 \* 2\^18\) blocks of "
                                                 r"17179869184 floats each, > 6553600$"):
                exact_avg_conditional_min_entropy(model, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("trans, bits", [([[0.6, 0.4], [0.2, 0.8]], 0.27566),
                                             ([[1.0, 0.0], [0.2, 0.8]], 0.11569)])
    def test_zero_probabilities_match_enumeration(self, trans, bits):
        # zero emissions rule out hidden paths; the zero transition also
        # makes 473 of the 729 observation sequences impossible, and the
        # enumeration sums their zero P* with the rest
        model = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=[0.3, 0.7], trans=trans,
                         emit=[[0.9, 0.1, 0.0], [0.0, 0.5, 0.5]])
        got = exact_avg_conditional_min_entropy(model, 6)
        assert got == pytest.approx(brute_exact_avg_bits(model, 6), abs=1e-9)
        assert got == pytest.approx(bits, abs=5e-6)

    def test_banded_family_matches_enumeration(self):
        model = family_config(levels=5, decay=0.5, spread=0.4, band=1).model
        got = exact_avg_conditional_min_entropy(model, 4)
        assert got == pytest.approx(brute_exact_avg_bits(model, 4), abs=1e-9)
        assert got == pytest.approx(2.58402, abs=5e-6)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_kernel_over_every_sequence(self, data):
        # every sequence through the kernel one row at a time (an
        # impossible one scores -inf), reduced as the enumeration reduces
        # its prefix scores: the same floats, bitwise
        k, m, n = (data.draw(st.integers(1, hi)) for hi in (3, 3, 5))
        model = drawn_model(data, k, m)

        def log_star(row):
            try:
                return viterbi_max_joint(model, np.array(row))
            except ImpossibleObservationError:
                return -np.inf

        logs = np.array([log_star(row) for row in itertools.product(range(m), repeat=n)])
        top = logs.max()
        want = float(max(0.0, -(top + math.log2(np.exp2(logs - top).sum()))))
        assert exact_avg_conditional_min_entropy(model, n) == want

    def test_nine_level_iid_family_at_guard(self):
        # 9^6 = 531441 sequences, the guard's largest 9-level case
        model = family_config(levels=9, decay=1.0, spread=0.41, band=2).model
        got = exact_avg_conditional_min_entropy(model, 6)
        assert got == pytest.approx(memoryless_exact_bits(model, 6), abs=1e-9)

    def test_upper_bound_n_log_k(self, rng):
        for _ in range(10):
            model = random_model(rng, 3, 3)
            n = int(rng.integers(1, 6))
            h = exact_avg_conditional_min_entropy(model, n)
            assert -1e-9 <= h <= n * math.log2(3) + 1e-9


class TestSeededOutputs:
    """Both recursions' values pinned to fixed digests, and the step and row
    where a batch first vanishes."""

    @staticmethod
    def digest(model, obs, checkpoints):
        h = hashlib.sha256()
        for out in _recursions(model, obs, checkpoints):
            h.update(np.ascontiguousarray(out).tobytes())
        return h.hexdigest()

    def test_iid_family(self):
        model = family_config(levels=9, spread=0.4, band=2).model
        obs = np.random.default_rng(99).integers(0, 9, size=(30, 100))
        assert self.digest(model, obs, [1, 37, 100]) == \
            "e1f3d77919f3fc5513b9520ab761f4edb548ed09ad5d320cce57e71b5809f7e1"

    def test_sticky_with_zeros(self):
        model = HmmModel(states=(0, 1, 2), symbols=(0, 1, 2), pi=[0.6, 0.4, 0.0],
                         trans=[[0.9, 0.1, 0.0], [0.05, 0.9, 0.05], [0.0, 0.1, 0.9]],
                         emit=[[0.7, 0.3, 0.0], [0.2, 0.6, 0.2], [0.0, 0.3, 0.7]])
        obs = np.random.default_rng(7).integers(0, 3, size=(12, 40))
        assert self.digest(model, obs, [1, 2, 40]) == \
            "1013a0798321e5226071230a12c924504237ef28e1975a19560c20bebb75bc4e"

    def test_batch_with_vanishing_row(self):
        model = HmmModel(states=(0, 1, 2), symbols=(0, 1, 2), pi=[0.5, 0.3, 0.2],
                         trans=[[0.5, 0.5, 0.0], [0.3, 0.4, 0.3], [0.2, 0.2, 0.6]],
                         emit=np.eye(3))
        obs = np.random.default_rng(8).integers(0, 3, size=(6, 25))
        # state 0 never moves to state 2: keep that step out of every row but one
        obs[:, 1:][(obs[:, :-1] == 0) & (obs[:, 1:] == 2)] = 1
        obs[3, 10:12] = (0, 2)
        with pytest.raises(ImpossibleObservationError,
                           match="^impossible observation sequence: zero probability at step 11$"
                           ) as info:
            _recursions(model, obs, [5, 11, 25])
        assert info.value.row == 3
        assert self.digest(model, obs[[0, 1, 2, 4, 5]], [5, 11, 25]) == \
            "95ed0a1f3da9b53258031472c7c6e9b007cb2b3baef554f773ece6d0dbebbff9"


class TestContiguousStep:
    """The kernel against the broadcast kernel it replaced
    (``oracles.broadcast_recursions``): the same floats bit for bit, or the
    same step and row named when a row dies."""

    @staticmethod
    def outcome(kernel, model, obs, checkpoints):
        try:
            return kernel(model, obs, checkpoints)
        except ImpossibleObservationError as exc:
            return str(exc), exc.row

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_broadcast_kernel(self, data):
        # rows drawn from the model itself all live; uniform rows over a
        # model with zero entries often die, at any step and row.  The
        # checkpoints: the first step, the last, every step, or any set
        k, m, n = (data.draw(st.integers(1, hi)) for hi in (9, 9, 12))
        r = data.draw(st.sampled_from([1, 3, 100]))
        model = drawn_model(data, k, m)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        obs = (sample_hmm(model, r, n, rng) if data.draw(st.booleans())
               else rng.integers(0, m, size=(r, n)))
        checkpoints = sorted(data.draw(st.one_of(
            st.sampled_from([[1], [n], list(range(1, n + 1))]),
            st.sets(st.integers(1, n), min_size=1))))
        want = self.outcome(broadcast_recursions, model, obs, checkpoints)
        got = self.outcome(_recursions, model, obs, checkpoints)
        if isinstance(want[0], str):
            assert got == want
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_names_the_earliest_death_then_the_first_row(self):
        # symbol 2 is impossible: row 2 meets it at step 3 and row 0 at step 5,
        # rows 1 and 3 both at step 3
        model = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=[0.5, 0.5],
                         trans=[[0.5, 0.5], [0.5, 0.5]],
                         emit=[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        obs = np.zeros((5, 8), dtype=np.int64)
        obs[0, 5] = obs[1, 3] = obs[2, 3] = obs[3, 3] = obs[4, 7] = 2
        want = ("impossible observation sequence: zero probability at step 3", 1)
        assert self.outcome(broadcast_recursions, model, obs, [8]) == want
        assert self.outcome(_recursions, model, obs, [8]) == want
        assert self.outcome(_recursions, model, obs[[0, 2, 4]], [8]) == (want[0], 1)

    @pytest.mark.parametrize("step", range(6))
    @pytest.mark.parametrize("row", [0, 2])
    def test_a_dead_row_is_named_after_any_number_of_swaps(self, step, row):
        # the step's buffers trade places each step: a row that dies at an
        # odd or an even step is named at that step, as the broadcast kernel does
        model = HmmModel(states=(0, 1, 2), symbols=(0, 1, 2), pi=[0.2, 0.3, 0.5],
                         trans=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
                         emit=[[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.5, 0.5, 0.0]])
        obs = np.tile([0, 1, 1, 0, 1, 0], (3, 1))
        obs[row, step] = 2
        want = (f"impossible observation sequence: zero probability at step {step}", row)
        assert self.outcome(broadcast_recursions, model, obs, [6]) == want
        assert self.outcome(_recursions, model, obs, [1, 6]) == want

    def test_peak_memory_at_max_levels(self):
        # the widened log2 a and one step's candidates, two (k, k, r) float
        # blocks, and under 4 MB besides: not a third block
        k, r = MAX_LEVELS, SLICE_LEN
        model = HmmModel(states=tuple(range(k)), symbols=tuple(range(k)),
                         pi=np.full(k, 1 / k), trans=np.full((k, k), 1 / k), emit=np.eye(k))
        obs = np.arange(2 * r).reshape(r, 2) % k
        block = k * k * r * 8
        tracemalloc.start()
        try:
            _recursions(model, obs, [2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 * block <= peak < 2 * block + 4 * 2 ** 20


class TestObservationDtype:
    """Observations are integer index arrays: a float or bool one is refused
    by its dtype, before a cast could cut 0.5 to 0 or a bool could mask."""

    def test_fractional_sequence_refused(self, two_state):
        with pytest.raises(ValueError, match=r"^observation indices must be integers, "
                                             r"got dtype float64$"):
            conditional_min_entropy_given_obs(two_state, [0.5, 1.0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_every_entry_point_names_the_dtype(self, two_state, dtype):
        obs = np.zeros((2, 3), dtype=dtype)
        calls = (lambda: entropy_profile_batch(two_state, obs, [3]),
                 lambda: estimate_avg_conditional_min_entropy(two_state, obs),
                 lambda: conditional_min_entropy_given_obs(two_state, obs[0]),
                 lambda: viterbi_max_joint(two_state, obs[0]),
                 lambda: forward_likelihood(two_state, obs[0]))
        for call in calls:
            with pytest.raises(ValueError, match=rf"got dtype {np.dtype(dtype)}$"):
                call()

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
    def test_integer_dtypes_give_the_same_bits(self, two_state, dtype):
        obs = np.array([[0, 1, 1, 0, 1], [1, 1, 0, 0, 0]])
        want = entropy_profile_batch(two_state, obs, [2, 5])
        assert np.array_equal(entropy_profile_batch(two_state, obs.astype(dtype), [2, 5]), want)

    def test_symbol_values_are_whole_numbers(self, two_state):
        with pytest.raises(ValueError,
                           match=r"^symbol at sample 1 is not an int64 integer: 0\.5$"):
            obs_from_values(two_state, [1, 0.5])
        assert obs_from_values(two_state, np.array([1.0, 0.0])).tolist() == [1, 0]


class TestEstimator:
    def test_single_experiment(self, two_state):
        obs = np.array([[0, 0]])
        est = estimate_avg_conditional_min_entropy(two_state, obs)
        assert est.mean_bits == pytest.approx(
            conditional_min_entropy_given_obs(two_state, obs[0]))
        assert est.std_bits == 0.0
        assert est.n_experiments == 1

    def test_deterministic_model_zero(self, rng):
        model = permutation_model()
        exps = rng.integers(0, 2, size=(20, 10))
        est = estimate_avg_conditional_min_entropy(model, exps)
        assert est.mean_bits == 0.0 and est.std_bits == 0.0

    def test_mean_matches_invariant(self, two_state, rng):
        exps = rng.integers(0, 2, size=(30, 6))
        est = estimate_avg_conditional_min_entropy(two_state, exps)
        assert est.mean_bits == pytest.approx(np.mean(est.per_experiment_bits), abs=1e-12)
        assert est.std_bits == pytest.approx(np.std(est.per_experiment_bits, ddof=1), abs=1e-12)

    def test_impossible_experiment_named(self):
        model = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=[0.3, 0.7],
                         trans=[[0.6, 0.4], [0.2, 0.8]],
                         emit=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ImpossibleObservationError, match="experiment 1"):
            estimate_avg_conditional_min_entropy(model, np.array([[0, 1], [0, 2]]))

    def test_impossible_first_symbol_named(self):
        model = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=[1.0, 0.0],
                         trans=[[0.6, 0.4], [0.2, 0.8]],
                         emit=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        exps = np.array([[0, 1, 1], [0, 1, 1], [1, 1, 0]])
        with pytest.raises(ImpossibleObservationError,
                           match="experiment 2: .* at step 0"):
            estimate_avg_conditional_min_entropy(model, exps)

    def test_out_of_range_symbol_rejected(self, two_state):
        with pytest.raises(ValueError, match="out of range"):
            estimate_avg_conditional_min_entropy(two_state, np.array([[0, 1], [0, 2]]))

    def test_batched_matches_per_sequence(self, rng):
        # one batched pass gives each experiment's -log2(P*/P) as computed
        # by separate single-sequence Viterbi and forward loops
        for _ in range(40):
            k, m = (int(v) for v in rng.integers(1, 6, size=2))
            model = random_model(rng, k, m)
            n = int(rng.integers(1, 60))
            exps = rng.integers(0, m, size=(int(rng.integers(1, 25)), n))
            est = estimate_avg_conditional_min_entropy(model, exps)
            expected = [max(0.0, scalar_forward_log2(model, e)
                            - scalar_viterbi_log2(model, e)) for e in exps]
            assert est.n_experiments == len(exps)
            assert est.n_samples_per_experiment == n
            assert np.allclose(est.per_experiment_bits, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("checkpoints, message", [
        ([], "at least one checkpoint"), ([0, 3], "unreachable"),
        ([-2], "unreachable"), ([4], "beyond"), ([2, 2], "duplicate")])
    def test_profile_rejects_bad_checkpoints(self, two_state, checkpoints, message):
        with pytest.raises(ValueError, match=message):
            entropy_profile_batch(two_state, np.zeros((2, 3), dtype=np.int64), checkpoints)

    def test_order_independence(self, two_state, rng):
        # per-experiment results do not depend on evaluation order
        exps = rng.integers(0, 2, size=(12, 6))
        fwd = estimate_avg_conditional_min_entropy(two_state, exps)
        rev = estimate_avg_conditional_min_entropy(two_state, exps[::-1])
        assert fwd.per_experiment_bits == rev.per_experiment_bits[::-1]
        assert fwd.mean_bits == pytest.approx(rev.mean_bits, abs=1e-12)

    def test_cross_check_against_exact_at_reduced_scale(self):
        # 80 experiments of 100 symbols on a 3-level reduction of the
        # calibrated channel family; the sampled mean must sit within 3
        # per-experiment standard deviations of the enumerated value
        # (entropy is per-symbol additive for the i.i.d. chain, so the
        # n = 10 exact value scales to 100 samples)
        from dataclasses import replace
        from physkey.channel import family_config, simulate_run
        cfg = family_config(levels=3, decay=1.0, spread=0.415, band=2,
                            q=0.024, n=8000, seed=55)
        exact10 = exact_avg_conditional_min_entropy(cfg.model, 10)
        run = simulate_run(replace(cfg, n=80 * 100, seed=56))
        est = estimate_avg_conditional_min_entropy(
            cfg.model, slice_experiments(cfg.model, run.eve.levels, 100))
        assert abs(est.mean_bits - 10 * exact10) <= 3 * est.std_bits

    def test_mean_not_below_exact_on_calibrated_channel(self, calibrated_config):
        # the estimator averages -log2(P*_j / P_j), and by Jensen that mean
        # is never below H~ = -log2 sum_y P*(y); on the true calibrated
        # (memoryless) model the closed form n * h gives H~ exactly
        from dataclasses import replace
        from physkey.channel import simulate_run
        model, n = calibrated_config.model, 4
        exact = memoryless_exact_bits(model, n)
        assert exact == pytest.approx(brute_exact_avg_bits(model, n, chunk=256), abs=1e-9)
        assert exact == pytest.approx(3.9107, abs=5e-5)
        run = simulate_run(replace(calibrated_config, n=2000 * n, seed=77))
        est = estimate_avg_conditional_min_entropy(
            model, slice_experiments(model, run.eve.levels, n))
        assert est.n_experiments == 2000
        assert est.mean_bits >= exact - 4 * est.std_bits / math.sqrt(est.n_experiments)


class TestFitFromTraces:
    def test_level_count_is_bounded(self):
        # every entry that sizes arrays by the level count checks it first
        assert MAX_LEVELS == 256 and len(level_states(MAX_LEVELS)) == 256
        trace = make_trace([-1, 0] * 10, "alice")
        message = "levels must be at most 256, got 257"
        for build in (lambda: level_states(257), lambda: family_config(levels=257),
                      lambda: fit_hmm_from_traces(trace, trace, levels=257)):
            with pytest.raises(ValueError, match=message):
                build()
        with pytest.raises(CalibrationError, match=f"calibration failed: {message}"):
            calibrate_to_reference_rates(0.1248, 0.0054, levels=257)

    def test_constant_trace_self_transition(self):
        hidden = make_trace([-1] * 50, "alice")
        observed = make_trace([-1] * 50, "eve")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_hmm_from_traces(hidden, observed, levels=3)
        i = model.states.index(-1)
        assert model.trans[i, i] == 1.0
        assert model.pi[i] == 1.0

    def test_alternating_forced_counts(self):
        hidden = make_trace([-1, 0] * 20, "alice")
        observed = make_trace([-1, 0] * 20, "eve")
        model = fit_hmm_from_traces(hidden, observed, levels=2)
        a, b = model.states.index(-1), model.states.index(0)
        assert model.trans[a, b] == 1.0
        assert model.trans[b, a] == 1.0

    def test_unvisited_rows_uniform_with_warning(self):
        hidden = make_trace([0] * 30, "alice")
        observed = make_trace([0] * 30, "eve")
        with pytest.warns(UserWarning, match="uniform"):
            model = fit_hmm_from_traces(hidden, observed, levels=4)
        i = model.states.index(-3)
        assert np.allclose(model.trans[i], 0.25)

    def test_unaligned_rejected(self):
        h = make_trace([0, -1, 0], "alice")
        o = make_trace([0, -1], "eve")
        with pytest.raises(ValueError, match="unaligned"):
            fit_hmm_from_traces(h, o, levels=2)

    def test_levels_smaller_than_alphabet(self):
        # levels in [-(levels - 1), 0] number at most levels, so a wider
        # alphabet always trips the range check
        h = make_trace([0, -1, -2, -3, -4, 0], "alice")
        o = make_trace([0, -1, -2, 0, -1, -2], "eve")
        with pytest.raises(ValueError, match=r"^hidden trace has levels outside \[-2, 0\]; "
                                             "clamp during ingestion$"):
            fit_hmm_from_traces(h, o, levels=3)
        with pytest.raises(ValueError, match=r"^observed trace has levels outside \[-1, 0\]"):
            fit_hmm_from_traces(make_trace([0, -1] * 3, "alice"), o, levels=2)

    def test_refit_recovers_generator(self):
        from physkey.channel import family_config, simulate_run
        from dataclasses import replace
        cfg = family_config(levels=3, decay=0.5, spread=0.6, band=1, q=0.02,
                            n=100_000, seed=5)
        run = simulate_run(cfg)
        model = fit_hmm_from_traces(run.alice, run.eve, levels=3)
        assert np.abs(model.trans - cfg.model.trans).max() < 0.02
        assert np.abs(model.emit - cfg.model.emit).max() < 0.02

    def test_refit_converges_with_length(self):
        from physkey.channel import family_config, simulate_run
        from dataclasses import replace
        cfg = family_config(levels=3, decay=0.4, spread=0.5, band=1, q=0.02, seed=11)
        tv = []
        for n in (1_000, 10_000, 100_000):
            run = simulate_run(replace(cfg, n=n))
            model = fit_hmm_from_traces(run.alice, run.eve, levels=3)
            tv.append(0.5 * np.abs(model.trans - cfg.model.trans).sum(axis=1).max())
        assert tv[0] >= tv[1] >= tv[2]


class TestLinearFit:
    def test_exact_line(self):
        fit = fit_linear_growth([(0, 1.0), (1, 3.0), (2, 5.0), (3, 7.0)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_sum_squares <= 1e-9

    def test_reference_fixtures(self):
        # fitted growth lines used throughout planning, kept as fixtures
        from physkey.protocol import REFERENCE_ENTROPY_FIT, REFERENCE_ERROR_FIT
        assert REFERENCE_ENTROPY_FIT.slope == 985 / 1000
        assert REFERENCE_ENTROPY_FIT.intercept == 1467 / 1000
        assert REFERENCE_ERROR_FIT.slope == 43 / 1000
        assert REFERENCE_ERROR_FIT.intercept == 48 / 1000

    def test_needs_two_distinct_x(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_linear_growth([(1, 2.0), (1, 3.0)])

    def test_minimizes_rss(self, rng):
        pts = [(int(x), float(y)) for x, y in
               zip(range(10), rng.normal(size=10) + 0.5 * np.arange(10))]
        fit = fit_linear_growth(pts)

        def rss(s, i):
            return sum((y - (s * x + i)) ** 2 for x, y in pts)

        base = rss(fit.slope, fit.intercept)
        for ds in (-1e-3, 1e-3):
            assert rss(fit.slope + ds, fit.intercept) >= base
            assert rss(fit.slope, fit.intercept + ds) >= base


class TestSerialization:
    def test_json_round_trip(self, two_state):
        doc = two_state.to_dict()
        assert set(doc) == {"k", "m", "states", "symbols", "pi", "trans", "emit"}
        back = HmmModel.from_dict(doc)
        assert back.states == two_state.states
        assert np.allclose(back.trans, two_state.trans)

    def test_from_dict_validates(self, two_state):
        doc = two_state.to_dict()
        doc["trans"][0][0] = 0.5  # row now sums to 0.6
        with pytest.raises(ValueError, match="invalid model"):
            HmmModel.from_dict(doc)

    def test_obs_from_values(self, two_state):
        obs = obs_from_values(two_state, [0, 1, 0])
        assert obs.dtype == np.int64 and obs.tolist() == [0, 1, 0]
        with pytest.raises(ValueError, match="alphabet"):
            obs_from_values(two_state, [7])

    def test_obs_from_values_matches_the_dict_lookup(self, rng):
        # unsorted alphabets, repeated symbols (the last index wins) and
        # values outside the alphabet, against a per-symbol dict reference
        for _ in range(300):
            m = int(rng.integers(1, 8))
            symbols = tuple(int(v) for v in rng.integers(-5, 6, size=m))
            model = HmmModel(states=(0,), symbols=symbols, pi=np.ones(1),
                             trans=np.ones((1, 1)), emit=np.full((1, m), 1.0 / m))
            values = rng.integers(-7, 8, size=int(rng.integers(1, 40)))
            lut = {v: i for i, v in enumerate(symbols)}
            missing = [int(v) for v in values if int(v) not in lut]
            if missing:
                with pytest.raises(ValueError, match=f"^symbol {missing[0]} is not in"):
                    obs_from_values(model, values)
            else:
                assert obs_from_values(model, values).tolist() == [
                    lut[int(v)] for v in values]

    def test_slice_experiments_matches_per_slice_mapping(self, rng):
        model = HmmModel(states=(0,), symbols=(4, -2, 7), pi=np.ones(1),
                         trans=np.ones((1, 1)), emit=np.full((1, 3), 1 / 3))
        levels = rng.choice([4, -2, 7], size=103)
        got = slice_experiments(model, levels, 10)
        assert got.dtype == np.int64 and got.tolist() == [
            obs_from_values(model, levels[i:i + 10]).tolist()
            for i in range(0, 100, 10)]
        assert slice_experiments(model, levels[:9], 10).shape == (0, 10)

    def test_slice_experiments_ignores_the_dropped_tail(self, two_state):
        got = slice_experiments(two_state, [0, 1, 1, 0, 9], 2)
        assert got.tolist() == [[0, 1], [1, 0]]

    def test_slice_experiments_names_first_missing_symbol(self, two_state):
        with pytest.raises(ValueError, match="^symbol 5 is not in"):
            slice_experiments(two_state, [0, 1, 0, 5, 1, 3, 0, 0], 4)

    @pytest.mark.parametrize("slice_len", [0, -5])
    def test_slice_experiments_rejects_short_slices(self, two_state, slice_len):
        with pytest.raises(ValueError, match="slice length must be at least 1"):
            slice_experiments(two_state, [0, 1, 0], slice_len)

    def test_obs_from_values_accepts_any_iterable(self, two_state):
        assert obs_from_values(two_state, iter([1, 0])).tolist() == [1, 0]
        assert obs_from_values(two_state, (v for v in [0, 0])).tolist() == [0, 0]
        # an empty trace maps to an empty sequence, which the kernel rejects
        with pytest.raises(ValueError, match="non-empty"):
            forward_likelihood(two_state, obs_from_values(two_state, []))
