"""The decision-tree policy engine: validation, compilation, behavior.

The engine's contract has three parts, each tested here: documents are
validated with dotted-path errors; the built-in trees reproduce the
legacy string knobs record-for-record; and custom trees actually change
scheduling/shedding/retry/hedging behavior through the same simulator.
"""

import os

import pytest

from repro.errors import ConfigError
from repro.serve.costmodel import ServiceCostTable
from repro.serve.fleet import FleetSimulator, ServeConfig
from repro.serve.policy import (
    OBSERVABLES,
    SLOTS,
    PolicyEngine,
    PolicySet,
    builtin_tree,
    compile_tree,
    list_policies,
    load_policy,
    policy_from_document,
    validate_tree,
)
from repro.serve.scenario import scenario_from_document
from repro.serve.workload import Request


def _table(max_batch=4):
    cycles = {("bp", 1, False): 1000.0, ("bp", 1, True): 1500.0,
              ("conv", 1, False): 500.0, ("conv", 1, True): 700.0}
    fc = {1: 100.0, 2: 150.0, 3: 190.0, 4: 220.0}
    for b, c in fc.items():
        cycles[("fc", b, False)] = c
        cycles[("fc", b, True)] = 2.0 * c
    return ServiceCostTable(
        cycles=cycles,
        model_bytes={"bp": 800, "conv": 400, "fc": 1600},
        tile_bytes={"bp": 80, "conv": 0, "fc": 0},
        quick=True,
        max_batch=max_batch,
    )


def _req(rid, arrival, kind="bp", tile=0):
    return Request(rid=rid, kind=kind, tile=tile, arrival=arrival)


class TestValidation:
    def test_unknown_observable_names_path(self):
        tree = {"if": {"field": "qeue.depth", "op": ">=", "value": 1},
                "then": {"pick": "locality"}, "else": {"pick": "locality"}}
        with pytest.raises(ConfigError, match=r"policy\.schedule\.if\.field"):
            validate_tree(tree, "schedule", "policy.schedule")

    def test_observable_slot_availability(self):
        # request.kind exists but only in the shed slot.
        tree = {"if": {"field": "request.kind", "op": "==", "value": "bp"},
                "then": {"pick": "locality"}, "else": {"pick": "locality"}}
        with pytest.raises(ConfigError, match="not available in the "
                                              "'schedule' slot"):
            validate_tree(tree, "schedule", "policy.schedule")

    def test_ordered_op_invalid_on_string(self):
        tree = {"if": {"field": "request.kind", "op": "<", "value": "fc"},
                "then": {"shed": "drop-newest"},
                "else": {"shed": "drop-oldest"}}
        with pytest.raises(ConfigError, match="ordered operator"):
            validate_tree(tree, "shed", "policy.shed")

    def test_set_op_needs_nonempty_list(self):
        tree = {"if": {"field": "request.kind", "op": "in", "value": "fc"},
                "then": {"shed": "drop-newest"},
                "else": {"shed": "drop-oldest"}}
        with pytest.raises(ConfigError, match="needs a non-empty list"):
            validate_tree(tree, "shed", "policy.shed")

    def test_wrong_slot_leaf_key(self):
        with pytest.raises(ConfigError,
                           match=r"'pick' belongs to the 'schedule' slot"):
            validate_tree({"pick": "locality"}, "shed", "policy.shed")

    def test_decision_node_missing_else(self):
        tree = {"if": {"field": "now", "op": ">=", "value": 0},
                "then": {"pick": "locality"}}
        with pytest.raises(ConfigError, match="missing 'else'"):
            validate_tree(tree, "schedule", "policy.schedule")

    def test_depth_limit(self):
        tree = {"pick": "locality"}
        for _ in range(20):
            tree = {"if": {"field": "now", "op": ">=", "value": 0},
                    "then": tree, "else": {"pick": "round-robin"}}
        with pytest.raises(ConfigError, match="deeper than"):
            validate_tree(tree, "schedule", "policy.schedule")

    def test_unknown_leaf_action(self):
        with pytest.raises(ConfigError, match=r"policy\.retry\.do"):
            validate_tree({"do": "give-up"}, "retry", "policy.retry")

    def test_document_needs_a_slot(self):
        with pytest.raises(ConfigError, match="defines no decision slot"):
            policy_from_document({"name": "empty"})

    def test_document_unknown_key(self):
        with pytest.raises(ConfigError, match=r"policy\.schedul:"):
            policy_from_document({"schedul": {"pick": "locality"}})

    def test_every_observable_is_typed_and_slotted(self):
        for name, (kind, slots) in OBSERVABLES.items():
            assert kind in ("int", "float", "str"), name
            assert slots and all(s in SLOTS for s in slots), name


class TestCompilation:
    def test_single_leaf_short_circuits(self):
        decision = compile_tree({"pick": "round-robin"}, "schedule")
        assert decision.leaf == "round-robin"
        assert decision.fields == frozenset()
        assert decision.fn({}) == "round-robin"

    def test_tree_records_read_fields(self):
        tree = {"if": {"field": "queue.depth", "op": ">=", "value": 8},
                "then": {"pick": "least-loaded"},
                "else": {"if": {"field": "batch.kind", "op": "==",
                                "value": "bp"},
                         "then": {"pick": "locality"},
                         "else": {"pick": "round-robin"}}}
        decision = compile_tree(tree, "schedule")
        assert decision.leaf is None
        assert decision.fields == {"queue.depth", "batch.kind"}
        assert decision.fn({"queue.depth": 9}) == "least-loaded"
        assert decision.fn({"queue.depth": 3,
                            "batch.kind": "bp"}) == "locality"
        assert decision.fn({"queue.depth": 3,
                            "batch.kind": "fc"}) == "round-robin"

    def test_set_ops(self):
        tree = {"if": {"field": "request.kind", "op": "in",
                       "value": ["fc", "conv"]},
                "then": {"shed": "drop-newest"},
                "else": {"shed": "drop-oldest"}}
        decision = compile_tree(tree, "shed")
        assert decision.fn({"request.kind": "fc"}) == "drop-newest"
        assert decision.fn({"request.kind": "bp"}) == "drop-oldest"

    def test_builtin_trees_compile_for_every_slot(self):
        kw = {"schedule": {"policy": "locality"},
              "shed": {"shed_policy": "drop-oldest"},
              "retry": {"max_retries": 2},
              "hedge": {"hedge_enabled": False}}
        for slot in SLOTS:
            decision = compile_tree(builtin_tree(slot, **kw[slot]), slot)
            assert decision.slot == slot

    def test_engine_overrides_only_given_slots(self):
        ps = PolicySet(schedule={"pick": "round-robin"})
        engine = PolicyEngine("least-loaded", "drop-oldest", 3, False,
                              policy_set=ps)
        assert engine.schedule.leaf == "round-robin"
        assert engine.shed.leaf == "drop-oldest"       # builtin kept
        assert engine.hedge.leaf == "no-hedge"


class TestBehavior:
    """Policy trees drive the same simulator the string knobs drive."""

    def _run(self, policy_set=None, **cfg):
        defaults = dict(chips=2, policy="least-loaded", max_batch=2,
                        max_wait_cycles=50.0, queue_capacity=4,
                        dispatch_overhead_cycles=10.0,
                        policy_set=policy_set)
        defaults.update(cfg)
        sim = FleetSimulator(ServeConfig(**defaults), _table(max_batch=2))
        reqs = [_req(i, float(i)) for i in range(12)]
        return sim.run(reqs)

    def test_constant_tree_matches_string_knob(self):
        """A decision tree that always yields the built-in primitive
        reproduces the knob-configured run record for record."""
        tree = {"if": {"field": "now", "op": ">=", "value": 0},
                "then": {"pick": "least-loaded"},
                "else": {"pick": "round-robin"}}
        base = self._run()
        treed = self._run(policy_set=PolicySet(schedule=tree))
        assert [(r.rid, r.chip, r.start, r.finish, r.outcome)
                for r in base.records] == \
               [(r.rid, r.chip, r.start, r.finish, r.outcome)
                for r in treed.records]

    def test_schedule_tree_changes_placement(self):
        """All three primitives place a mixed bp/conv stream differently
        (unequal service times break the alternating tie pattern)."""
        reqs = [_req(i, float(i), kind=("bp" if i % 2 == 0 else "conv"))
                for i in range(12)]
        chips = {}
        for pol in ("round-robin", "least-loaded", "locality"):
            config = ServeConfig(chips=2, max_batch=1,
                                 max_wait_cycles=50.0, queue_capacity=16,
                                 dispatch_overhead_cycles=10.0,
                                 policy_set=PolicySet(
                                     schedule={"pick": pol}))
            result = FleetSimulator(config, _table(max_batch=1)).run(reqs)
            chips[pol] = [r.chip for r in result.records]
        assert chips["round-robin"] != chips["least-loaded"]
        assert chips["least-loaded"] != chips["locality"]
        assert chips["locality"] != chips["round-robin"]

    def test_shed_tree_picks_victims_per_request(self):
        """drop-oldest for high tiles, drop-newest for low: the two
        victim classes appear in the same run."""
        tree = {"if": {"field": "request.tile", "op": ">=", "value": 1},
                "then": {"shed": "drop-oldest"},
                "else": {"shed": "drop-newest"}}
        reqs = ([_req(i, float(i) * 0.1, tile=0) for i in range(6)]
                + [_req(6, 0.7, tile=1), _req(7, 0.8, tile=0)])
        config = ServeConfig(chips=1, max_batch=8,
                             max_wait_cycles=1e9, queue_capacity=2,
                             policy_set=PolicySet(shed=tree))
        result = FleetSimulator(config, _table(max_batch=8)).run(reqs)
        shed = {r.rid for r in result.records if r.shed}
        # Queue holds rids 0,1; rid 2..5 (tile 0) shed themselves
        # (drop-newest); rid 6 (tile 1) evicts the oldest resident (rid
        # 0); rid 7 (tile 0) sheds itself again.
        assert 6 not in shed
        assert 0 in shed
        assert {2, 3, 4, 5, 7} <= shed


class TestFilesAndScenario:
    POLICY_YAML = """\
name: test-policy
description: drop-oldest always
shed:
  shed: drop-oldest
"""

    def test_load_policy_by_path(self, tmp_path):
        path = tmp_path / "p.yaml"
        path.write_text(self.POLICY_YAML)
        ps = load_policy(str(path))
        assert ps.name == "test-policy"
        assert ps.shed == {"shed": "drop-oldest"}
        assert ps.source == str(path)

    def test_load_policy_by_name_via_env_dir(self, tmp_path, monkeypatch):
        (tmp_path / "mypolicy.yaml").write_text(self.POLICY_YAML)
        monkeypatch.setenv("REPRO_POLICY_DIR", str(tmp_path))
        ps = load_policy("mypolicy")
        assert ps.shed == {"shed": "drop-oldest"}
        names = [p["name"] for p in list_policies()]
        assert "mypolicy" in names

    def test_unknown_name_lists_known(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POLICY_DIR", str(tmp_path))
        with pytest.raises(ConfigError, match="no policy named"):
            load_policy("nope")

    def test_json_policy_document(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"retry": {"do": "expire"}}')
        assert load_policy(str(path)).retry == {"do": "expire"}

    def test_yaml_errors_name_the_policy_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("schedule:\n  pick: locality\n   stray: 2\n")
        with pytest.raises(ConfigError) as exc:
            load_policy(str(path))
        assert str(exc.value) == (
            f"policy parse: {path}: line 3: unexpected indent")

    def test_scenario_inline_policy(self):
        scenario = scenario_from_document({
            "policy": {"schedule": {"pick": "round-robin"}}})
        assert scenario.serve.policy_set.schedule == \
            {"pick": "round-robin"}

    def test_scenario_policy_file_ref(self, tmp_path):
        path = tmp_path / "p.yaml"
        path.write_text(self.POLICY_YAML)
        scenario = scenario_from_document(
            {"policy": {"file": str(path)}})
        assert scenario.serve.policy_set.name == "test-policy"

    def test_scenario_policy_errors_carry_scenario_path(self):
        with pytest.raises(ConfigError,
                           match=r"scenario\.policy\.schedule"):
            scenario_from_document(
                {"policy": {"schedule": {"pick": "bogus"}}})

    def test_repo_example_policy_parses(self):
        repo = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        example_dir = os.path.join(repo, "examples", "policies")
        entries = [e for e in os.listdir(example_dir)
                   if e.endswith((".yaml", ".yml", ".json"))]
        assert entries, "examples/policies must ship at least one policy"
        for entry in entries:
            ps = load_policy(os.path.join(example_dir, entry))
            assert ps.slots_given()


class TestClusterScopeObservables:
    """The SLO-headroom and cluster-scope vocabulary (new in the
    cluster layer) evaluates in a standalone fleet, where the cluster
    names degrade to their single-fleet values."""

    def test_new_names_available_in_every_slot(self):
        for name in ("fleet.slo_headroom", "shard.slo_headroom",
                     "cluster.alive_shard_fraction"):
            kind, slots = OBSERVABLES[name]
            assert kind == "float"
            assert set(slots) == set(SLOTS)

    def test_kind_depth_vocabulary_covers_every_kind(self):
        from repro.serve.workload import KINDS
        for kind in KINDS:
            assert f"queue.kind_depth.{kind}" in OBSERVABLES

    def test_slo_headroom_drives_shed_choice(self):
        """The same headroom tree picks different victims under a tight
        vs. loose SLO: headroom is live, not a constant."""
        tree = {"if": {"field": "fleet.slo_headroom",
                       "op": ">=", "value": 0.5},
                "then": {"shed": "drop-newest"},
                "else": {"shed": "drop-oldest"}}
        reqs = [_req(i, float(i)) for i in range(8)]

        def shed_set(slo):
            config = ServeConfig(chips=1, max_batch=8,
                                 max_wait_cycles=1e9, queue_capacity=2,
                                 slo_cycles=slo,
                                 policy_set=PolicySet(shed=tree))
            result = FleetSimulator(config, _table(max_batch=8)).run(
                list(reqs))
            return {r.rid for r in result.records if r.shed}

        loose, tight = shed_set(1e6), shed_set(10.0)
        # Loose SLO: headroom stays ~1, drop-newest sheds arrivals.
        assert 0 not in loose
        # Tight SLO: headroom decays below 0.5 while rid 0 waits, so
        # drop-oldest evicts it.
        assert 0 in tight
        assert loose != tight

    def test_cluster_fraction_degrades_to_one_standalone(self):
        """Outside a cluster the belief reads 1.0, so a tree branching
        on it reproduces its then-branch exactly."""
        tree = {"if": {"field": "cluster.alive_shard_fraction",
                       "op": ">=", "value": 1.0},
                "then": {"pick": "least-loaded"},
                "else": {"pick": "round-robin"}}
        reqs = [_req(i, float(i)) for i in range(12)]
        config = dict(chips=2, max_batch=2, max_wait_cycles=50.0,
                      queue_capacity=4, dispatch_overhead_cycles=10.0)
        base = FleetSimulator(
            ServeConfig(policy="least-loaded", **config),
            _table(max_batch=2)).run(list(reqs))
        treed = FleetSimulator(
            ServeConfig(policy_set=PolicySet(schedule=tree), **config),
            _table(max_batch=2)).run(list(reqs))
        assert [(r.rid, r.chip, r.finish) for r in base.records] == \
               [(r.rid, r.chip, r.finish) for r in treed.records]
