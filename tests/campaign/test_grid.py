"""Campaign grid expansion and cache-key stability."""

import json

import pytest

from repro.campaign.grid import (
    SCENARIOS,
    SENDERS,
    CampaignGrid,
    CellCoord,
    threshold_label,
)
from repro.exec.cases import Case, case_key


def grid(**overrides):
    defaults = dict(
        thresholds=((40.0,), (30.0, 50.0)),
        loads=(0.2, 0.4),
        fan_ins=(0, 8),
        scenarios=("buildup",),
        seeds=(1, 2),
    )
    defaults.update(overrides)
    return CampaignGrid(**defaults)


class TestExpansion:
    def test_counts(self):
        g = grid()
        assert g.n_cells == 2 * 1 * 2 * 2
        assert g.n_cases == g.n_cells * 2
        assert len(g.expand()) == g.n_cases
        assert len(list(g.coords())) == g.n_cells

    def test_seeds_innermost(self):
        cases = grid().expand()
        # Consecutive cases differ only in seed within one cell block.
        assert cases[0].params["seed"] == 1
        assert cases[1].params["seed"] == 2
        first = dict(cases[0].params)
        second = dict(cases[1].params)
        first.pop("seed")
        second.pop("seed")
        assert first == second

    def test_expansion_order_is_nested_iteration(self):
        g = grid(scenarios=("buildup", "incast"))
        coords = list(g.coords())
        expected = [
            CellCoord(tuple(t), s, l, f)
            for t in g.thresholds
            for s in g.scenarios
            for l in g.loads
            for f in g.fan_ins
        ]
        assert coords == expected

    def test_labels_readable(self):
        labels = [case.label for case in grid().expand()]
        assert labels[0] == "K=40/buildup/load=0.2/fan=0/seed=1"
        assert "K1=30,K2=50" in labels[-1]
        assert len(set(labels)) == len(labels)

    def test_params_json_serialisable(self):
        for case in grid().expand():
            round_trip = json.loads(json.dumps(case.params))
            assert round_trip == case.params

    def test_threshold_label(self):
        assert threshold_label((40.0,)) == "K=40"
        assert threshold_label((30.0, 50.0)) == "K1=30,K2=50"
        assert CellCoord((65.0,), "buildup", 0.2, 0).protocol == "K=65"


class TestCacheKeyStability:
    def test_two_expansions_key_identical(self):
        """Equal grids expand to key-identical cases, whatever object
        built them — this is what makes warm campaign re-runs all-hit."""
        keys_a = [case_key(c) for c in grid().expand()]
        keys_b = [case_key(c) for c in grid().expand()]
        assert keys_a == keys_b
        assert len(set(keys_a)) == len(keys_a)

    def test_label_not_in_key(self):
        case = grid().expand()[0]
        relabelled = Case(
            experiment=case.experiment,
            label="something-else-entirely",
            params=case.params,
        )
        assert case_key(case) == case_key(relabelled)

    def test_any_param_change_changes_key(self):
        base = case_key(grid().expand()[0])
        for overrides in (
            dict(seeds=(3, 4)),
            dict(loads=(0.3, 0.4)),
            dict(thresholds=((41.0,), (30.0, 50.0))),
            dict(duration=0.05),
            dict(n_spines=3),
        ):
            assert case_key(grid(**overrides).expand()[0]) != base


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        dict(thresholds=()),
        dict(thresholds=((50.0, 30.0),)),          # K1 >= K2
        dict(thresholds=((30.0, 30.0),)),
        dict(thresholds=((-5.0,),)),
        dict(thresholds=((10.0, 20.0, 30.0),)),    # arity
        dict(loads=()),
        dict(loads=(0.0,)),
        dict(fan_ins=()),
        dict(fan_ins=(-1,)),
        dict(scenarios=("steady",)),
        dict(seeds=()),
        dict(seeds=(1, 1)),
        dict(n_leaves=1),
        dict(warmup=0.05, duration=0.04),
        # Non-finite or out-of-range fabric and window constants.
        dict(duration=float("nan")),
        dict(duration=float("inf")),
        dict(host_bandwidth_bps=0.0),
        dict(host_bandwidth_bps=-1e9),
        dict(host_bandwidth_bps=float("nan")),
        dict(fabric_bandwidth_bps=0.0),
        dict(fabric_bandwidth_bps=float("inf")),
        dict(fabric_buffer_bytes=0.0),
        dict(fabric_buffer_bytes=float("nan")),
        dict(warmup=-0.001),
        dict(warmup=float("nan")),
        dict(per_hop_delay=-1e-6),
        dict(per_hop_delay=float("nan")),
        dict(per_hop_delay=float("inf")),
        dict(thresholds=((float("nan"),),)),
        dict(loads=(float("nan"),)),
        dict(loads=(float("inf"),)),
    ])
    def test_rejected(self, overrides):
        with pytest.raises(ValueError):
            grid(**overrides)

    def test_scenarios_registry(self):
        assert SCENARIOS == ("buildup", "incast", "space-dc")
        assert SENDERS == ("dctcp", "cubic")


class TestSenderAxis:
    def test_senders_zip_pair_with_thresholds(self):
        g = grid(
            thresholds=((65.0,), (50.0, 80.0), (65.0,)),
            senders=("dctcp", "dctcp", "cubic"),
        )
        coords = list(g.coords())
        assert [c.sender for c in coords[:: g.n_cells // 3]] == [
            "dctcp", "dctcp", "cubic",
        ]
        # 3 threshold configs ZIPPED with senders, not crossed.
        assert g.n_cells == 3 * 1 * 2 * 2

    def test_protocol_label(self):
        assert CellCoord((65.0,), "space-dc", 0.1, 2).protocol == "K=65"
        assert (
            CellCoord((65.0,), "space-dc", 0.1, 2, sender="cubic").protocol
            == "CUBIC"
        )

    @pytest.mark.parametrize("overrides", [
        dict(senders=("dctcp",)),                  # length mismatch
        dict(senders=("dctcp", "reno")),           # unknown sender
    ])
    def test_rejected(self, overrides):
        with pytest.raises(ValueError):
            grid(**overrides)


class TestChaosKnobs:
    @pytest.mark.parametrize("overrides", [
        dict(jitter_s=-1e-3),
        dict(flap_count=-1),
        dict(flap_down=2.0, flap_period=2.0, flap_count=1),
        dict(flap_down=0.0, flap_period=2.0, flap_count=1),
        dict(jitter_s=float("nan")),
        dict(jitter_s=float("inf")),
        dict(flap_period=float("inf"), flap_count=1),
        dict(flap_down=float("nan"), flap_count=0),
    ])
    def test_rejected(self, overrides):
        with pytest.raises(ValueError):
            grid(**overrides)

    def test_flap_geometry_unchecked_when_train_disabled(self):
        # flap_count=0 disables the train, so its geometry is free.
        assert grid(flap_count=0, flap_down=9.0, flap_period=2.0)


class TestCacheKeyCompat:
    """New optional axes must not disturb pre-existing cache keys."""

    #: The exact parameter set every pre-chaos grid produced; a default
    #: (DCTCP, non-chaos, no-invariants) cell must still produce exactly
    #: this, or every historic content-addressed cache entry goes cold.
    HISTORIC_KEYS = {
        "thresholds", "scenario", "load", "fan_in", "seed",
        "n_leaves", "n_spines", "hosts_per_leaf",
        "host_bandwidth_bps", "fabric_bandwidth_bps",
        "per_hop_delay", "fabric_buffer_bytes",
        "flow_bytes", "incast_bytes_per_flow", "duration", "warmup",
    }

    def test_default_cells_keep_historic_param_set(self):
        for case in grid(scenarios=("buildup", "incast")).expand():
            assert set(case.params) == self.HISTORIC_KEYS

    def test_space_dc_cells_add_only_chaos_knobs(self):
        for case in grid(scenarios=("space-dc",)).expand():
            assert set(case.params) == self.HISTORIC_KEYS | {
                "jitter_s", "flap_period", "flap_down", "flap_count",
            }

    def test_cubic_cells_add_only_sender(self):
        g = grid(senders=("dctcp", "cubic"))
        dctcp_block = g.expand()[: g.n_cases // 2]
        cubic_block = g.expand()[g.n_cases // 2 :]
        for case in dctcp_block:
            assert "sender" not in case.params
        for case in cubic_block:
            assert case.params["sender"] == "cubic"
            assert set(case.params) == self.HISTORIC_KEYS | {"sender"}

    def test_invariants_opt_in_changes_keys(self):
        base = case_key(grid().expand()[0])
        audited = case_key(grid(invariants=True).expand()[0])
        assert audited != base
        assert grid(invariants=True).expand()[0].params["invariants"] is True

    def test_chaos_knobs_enter_key_only_for_space_dc(self):
        # Changing a chaos knob re-keys space-dc cells but must leave
        # buildup/incast cells untouched (the knob does not apply).
        base = case_key(grid().expand()[0])
        assert case_key(grid(jitter_s=5e-3).expand()[0]) == base
        space = case_key(grid(scenarios=("space-dc",)).expand()[0])
        assert (
            case_key(grid(scenarios=("space-dc",), jitter_s=5e-3).expand()[0])
            != space
        )
