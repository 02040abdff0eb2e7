"""Majority-vote defense: worked examples, edge cases, vote properties."""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chrono_shield.cnn import ModelConfig, init_weights
from chrono_shield.configfile import InvalidConfig
from chrono_shield.defense import (
    DefenseWarning,
    Verdict,
    VotePolicy,
    defend,
    format_verdict,
    majority_vote,
)
from chrono_shield.history import HistoricalRecord

from _oracles import mk_pred
from conftest import flat_image


# ---------------------------------------------------------------------------
# Worked examples


class TestWorkedExamples:
    def test_attacked_frame_outvoted_by_history(self):
        # Current frame fooled into class 2; three consistent historical
        # views of the same sign all say class 0 — history wins 3:1.
        current = mk_pred(2, 0.8467)
        history = [mk_pred(0, 0.7702), mk_pred(0, 0.8576), mk_pred(0, 0.8740)]
        v = majority_vote(current, history)
        assert v.voted_label == 0
        assert v.suspected_attack
        assert v.voted_confidence == pytest.approx((0.7702 + 0.8576 + 0.8740) / 3)
        assert len(v.votes) == 4
        assert v.votes[0].source == "current"
        assert all(vote.source == "history" for vote in v.votes[1:])
        assert v.warnings == []

    def test_count_tie_broken_by_summed_confidence(self):
        # 2 votes each for 0 and 1; class 0 sums 0.9+0.7=1.6 > 1.1.
        current = mk_pred(0, 0.9)
        history = [mk_pred(1, 0.6), mk_pred(1, 0.5), mk_pred(0, 0.7)]
        v = majority_vote(current, history)
        assert v.voted_label == 0
        assert DefenseWarning.TIE_BROKEN in v.warnings
        assert not v.suspected_attack
        assert v.voted_confidence == pytest.approx((0.9 + 0.7) / 2)

    def test_exact_confidence_tie_prefers_lowest_index(self):
        current = mk_pred(3, 0.8)
        history = [mk_pred(1, 0.8)]
        v = majority_vote(current, history, VotePolicy(min_history=1))
        assert v.voted_label == 1
        assert DefenseWarning.TIE_BROKEN in v.warnings
        assert v.suspected_attack

    def test_clean_frame_agrees_with_history(self):
        current = mk_pred(5, 0.95)
        history = [mk_pred(5, 0.91), mk_pred(5, 0.88), mk_pred(5, 0.93)]
        v = majority_vote(current, history)
        assert v.voted_label == 5
        assert not v.suspected_attack
        assert v.warnings == []
        assert v.voted_confidence == pytest.approx((0.95 + 0.91 + 0.88 + 0.93) / 4)


# ---------------------------------------------------------------------------
# Edge cases and warnings


class TestEdgesAndWarnings:
    def test_change_threshold_outside_unit_interval_refused(self):
        for bad in (1.5, float("nan"), 0.0, -1.0):
            with pytest.raises(InvalidConfig, match="change_threshold"):
                VotePolicy(change_threshold=bad)
        assert VotePolicy(change_threshold=1.0).change_threshold == 1.0

    def test_empty_history_falls_back_to_current(self):
        current = mk_pred(7, 0.6)
        v = majority_vote(current, [])
        assert v.voted_label == 7
        assert not v.suspected_attack
        assert v.warnings == [DefenseWarning.INSUFFICIENT_HISTORY]
        assert len(v.votes) == 1

    def test_insufficient_history_threshold(self):
        current = mk_pred(1, 0.8)
        history = [mk_pred(1, 0.8), mk_pred(1, 0.8)]
        v = majority_vote(current, history, VotePolicy(min_history=3))
        assert DefenseWarning.INSUFFICIENT_HISTORY in v.warnings
        ok = majority_vote(current, history, VotePolicy(min_history=2))
        assert DefenseWarning.INSUFFICIENT_HISTORY not in ok.warnings

    def test_configuration_change_flagged(self):
        # Unanimous old label, confident new one: may be a replaced sign.
        current = mk_pred(4, 0.94)
        history = [mk_pred(9, 0.9), mk_pred(9, 0.85), mk_pred(9, 0.88)]
        v = majority_vote(current, history)
        assert DefenseWarning.CONFIGURATION_CHANGE in v.warnings
        assert v.suspected_attack  # still outvoted

    def test_low_confidence_change_not_flagged(self):
        current = mk_pred(4, 0.60)
        history = [mk_pred(9, 0.9), mk_pred(9, 0.85), mk_pred(9, 0.88)]
        v = majority_vote(current, history)
        assert DefenseWarning.CONFIGURATION_CHANGE not in v.warnings

    def test_split_history_not_a_configuration_change(self):
        current = mk_pred(4, 0.95)
        history = [mk_pred(9, 0.9), mk_pred(9, 0.85), mk_pred(2, 0.88)]
        v = majority_vote(current, history)
        assert DefenseWarning.CONFIGURATION_CHANGE not in v.warnings

    def test_history_meta_length_mismatch(self):
        with pytest.raises(ValueError):
            majority_vote(mk_pred(0, 0.9), [mk_pred(0, 0.9)], history_meta=[])

    def test_history_meta_propagates_to_votes(self):
        meta = [("archive", date(2019, 7, 3)), ("remote", None)]
        v = majority_vote(
            mk_pred(0, 0.9),
            [mk_pred(0, 0.8), mk_pred(0, 0.7)],
            VotePolicy(min_history=2),
            history_meta=meta,
        )
        assert v.votes[1].source == "archive"
        assert v.votes[1].capture_date == date(2019, 7, 3)
        assert v.votes[2].source == "remote"
        assert v.votes[2].capture_date is None


# ---------------------------------------------------------------------------
# Vote properties


labels = st.integers(min_value=0, max_value=15)
confs = st.floats(min_value=0.07, max_value=1.0, allow_nan=False)
pred_st = st.tuples(labels, confs)


class TestVoteProperties:
    @given(pred_st, st.lists(pred_st, min_size=1, max_size=8), st.randoms())
    @settings(max_examples=200)
    def test_permutation_invariance(self, cur, hist, pyrng):
        current = mk_pred(*cur)
        history = [mk_pred(l, c) for l, c in hist]
        a = majority_vote(current, history)
        shuffled = history[:]
        pyrng.shuffle(shuffled)
        b = majority_vote(current, shuffled)
        assert a.voted_label == b.voted_label
        assert a.suspected_attack == b.suspected_attack
        assert a.voted_confidence == pytest.approx(b.voted_confidence)

    @given(pred_st, st.lists(pred_st, min_size=1, max_size=8), confs)
    @settings(max_examples=200)
    def test_duplicate_winner_monotonicity(self, cur, hist, extra_conf):
        # Adding one more vote for the current winner never dethrones it.
        current = mk_pred(*cur)
        history = [mk_pred(l, c) for l, c in hist]
        before = majority_vote(current, history)
        after = majority_vote(
            current, history + [mk_pred(before.voted_label, extra_conf)]
        )
        assert after.voted_label == before.voted_label

    @given(labels, labels, confs, st.lists(confs, min_size=3, max_size=3))
    @settings(max_examples=200)
    def test_single_corrupted_voter_immunity(self, true_label, adv_label, adv_conf, hist_confs):
        # Three agreeing historical votes always beat one corrupted frame.
        current = mk_pred(adv_label, adv_conf)
        history = [mk_pred(true_label, c) for c in hist_confs]
        v = majority_vote(current, history)
        assert v.voted_label == true_label
        assert v.suspected_attack == (adv_label != true_label)

    @given(st.data())
    @settings(max_examples=1000)
    def test_k_corrupted_voters_never_overturn_a_lead_above_2k(self, data):
        # Corrupting k voters, the current frame among them or not, takes at
        # most k votes from the winner and gives at most k to any rival, so
        # a lead over the runner-up above 2k decides the vote either way.
        # The lead is drawn just above 2k, where a miscount would show.
        k = data.draw(st.integers(0, 3))
        rival = data.draw(st.integers(0, 4))
        winner, runner_up, *others = data.draw(st.permutations(range(16)))
        lead = 2 * k + data.draw(st.integers(1, 3))
        crowd = [winner] * (rival + lead) + [runner_up] * rival + others[:rival]
        voters = [(label, data.draw(confs)) for label in data.draw(st.permutations(crowd))]
        corrupted = list(voters)
        for i in data.draw(st.permutations(range(len(voters))))[:k]:
            corrupted[i] = (data.draw(st.sampled_from([runner_up, winner, others[0]])), data.draw(confs))
        before = majority_vote(mk_pred(*voters[0]), [mk_pred(*v) for v in voters[1:]])
        after = majority_vote(mk_pred(*corrupted[0]), [mk_pred(*v) for v in corrupted[1:]])
        assert before.voted_label == after.voted_label == winner


# ---------------------------------------------------------------------------
# defend() wiring and formatting


class TestDefendAndFormat:
    def test_defend_counts_votes_and_sources(self):
        weights = init_weights(ModelConfig(input_side=16, channels=(4, 4, 4), num_classes=4), seed=0)
        img = flat_image(128, 16, 16)
        records = [
            HistoricalRecord(
                image=flat_image(100 + 20 * i, 16, 16),
                capture_date=date(2016 + i, 1, 1),
                location=(40.0, -74.0),
                heading=90.0,
                source="archive",
            )
            for i in range(3)
        ]
        v = defend(img, records, weights)
        assert len(v.votes) == 4
        assert v.votes[0].source == "current"
        assert [vote.source for vote in v.votes[1:]] == ["archive"] * 3
        assert [vote.capture_date for vote in v.votes[1:]] == [
            date(2016, 1, 1), date(2017, 1, 1), date(2018, 1, 1)
        ]
        assert isinstance(v, Verdict)

    def test_format_verdict_mentions_names_and_flags(self):
        current = mk_pred(2, 0.8467)
        history = [mk_pred(0, 0.7702), mk_pred(0, 0.8576), mk_pred(0, 0.8740)]
        v = majority_vote(current, history)
        names = [f"sign_{i}" for i in range(16)]
        text = format_verdict(v, class_names=names)
        assert "sign_0" in text and "sign_2" in text
        assert "suspected_attack=yes" in text
        plain = format_verdict(v)
        assert "class_0" in plain

    def test_format_verdict_lists_warnings(self):
        v = majority_vote(mk_pred(3, 0.9), [])
        text = format_verdict(v)
        assert "insufficient_history" in text
