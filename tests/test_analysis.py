"""The reprolint invariant linter: per-rule fixtures (true positive,
true negative, suppression), baseline round-trips, reporter output and
the meta-test that the repo itself lints clean against the committed
baseline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    BaselineError,
    LintEngine,
    all_rules,
    lint_paths,
    render_json,
    render_rules,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, source, name="mod.py"):
    """Write ``source`` into a tmp tree and lint it as library code."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_paths([path], root=tmp_path)


def rules_hit(result):
    return sorted({f.rule for f in result.findings})


# ---------------------------------------------------------------------------
# RNG001: silent default_rng fallbacks
# ---------------------------------------------------------------------------


class TestRng001:
    def test_argless_default_rng(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def sample():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng\n",
        )
        assert rules_hit(result) == ["RNG001"]
        assert result.findings[0].line == 3
        assert "nondeterministic" in result.findings[0].message

    def test_literal_seed(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from numpy.random import default_rng\n"
            "def sample():\n"
            "    return default_rng(0)\n",
        )
        assert rules_hit(result) == ["RNG001"]
        assert "hard-coded" in result.findings[0].message

    def test_or_fallback(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def sample(rng, seed):\n"
            "    rng = rng or np.random.default_rng(seed)\n"
            "    return rng\n",
        )
        assert rules_hit(result) == ["RNG001"]
        assert "falls back" in result.findings[0].message

    def test_variable_seed_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def sample(seed):\n"
            "    return np.random.default_rng(seed)\n",
        )
        assert result.findings == []

    def test_rng_module_is_exempt(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def coerce():\n"
            "    return np.random.default_rng(0)\n",
            name="repro/rng.py",
        )
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def sample():\n"
            "    # reprolint: ignore[RNG001] -- fixture needs any stream\n"
            "    return np.random.default_rng()\n",
        )
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RNG001"]
        assert result.suppressed[0].suppressed


# ---------------------------------------------------------------------------
# ALLOC001: np.empty scatter fills
# ---------------------------------------------------------------------------


class TestAlloc001:
    def test_scatter_fill_without_check(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def assign(rows, values):\n"
            "    out = np.empty(10)\n"
            "    out[rows] = values\n"
            "    return out\n",
        )
        assert rules_hit(result) == ["ALLOC001"]
        finding = result.findings[0]
        assert finding.line == 3  # anchored at the allocation
        assert "'out'" in finding.message
        assert "line 4" in finding.message

    def test_coverage_assert_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def assign(rows, values):\n"
            "    out = np.empty(10)\n"
            "    out[rows] = values\n"
            "    assert (out >= 0).all()\n"
            "    return out\n",
        )
        assert result.findings == []

    def test_slice_fill_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def fill(values):\n"
            "    out = np.empty(10)\n"
            "    out[:5] = values\n"
            "    out[5:] = 0\n"
            "    return out\n",
        )
        assert result.findings == []

    def test_loop_variable_fill_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def fill(groups):\n"
            "    out = np.empty(len(groups))\n"
            "    for i, g in enumerate(groups):\n"
            "        out[i] = g.size\n"
            "    return out\n",
        )
        assert result.findings == []

    def test_np_full_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def assign(rows, values):\n"
            "    out = np.full(10, -1)\n"
            "    out[rows] = values\n"
            "    return out\n",
        )
        assert result.findings == []


# ---------------------------------------------------------------------------
# PICKLE001: unpicklable process-pool tasks
# ---------------------------------------------------------------------------


class TestPickle001:
    def test_lambda_submit(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run():\n"
            "    pool = ProcessPoolExecutor()\n"
            "    return pool.submit(lambda: 1)\n",
        )
        assert rules_hit(result) == ["PICKLE001"]
        assert "lambda" in result.findings[0].message

    def test_nested_def_submit(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run():\n"
            "    def task():\n"
            "        return 1\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.map(task, [1])\n",
        )
        assert rules_hit(result) == ["PICKLE001"]
        assert "locally defined" in result.findings[0].message

    def test_module_level_task_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def task(x):\n"
            "    return x\n"
            "def run():\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.map(task, [1])\n",
        )
        assert result.findings == []

    def test_thread_pool_lambda_is_clean(self, tmp_path):
        # Thread pools don't pickle; lambdas are fine there.
        result = lint_snippet(
            tmp_path,
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def run():\n"
            "    executor = ThreadPoolExecutor()\n"
            "    return executor.submit(lambda: 1)\n",
        )
        assert result.findings == []

    def test_lambda_initializer(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(table):\n"
            "    return ProcessPoolExecutor(\n"
            "        initializer=lambda: None, initargs=()\n"
            "    )\n",
        )
        assert rules_hit(result) == ["PICKLE001"]
        assert "initializer" in result.findings[0].message

    def test_closure_initializer(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import concurrent.futures as cf\n"
            "def run(table):\n"
            "    def init():\n"
            "        global STATE\n"
            "        STATE = table\n"
            "    with cf.ProcessPoolExecutor(initializer=init) as pool:\n"
            "        return pool\n",
        )
        assert rules_hit(result) == ["PICKLE001"]
        assert "locally defined function 'init'" in (
            result.findings[0].message
        )

    def test_module_level_initializer_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from . import worker\n"
            "def init(table):\n"
            "    global STATE\n"
            "    STATE = table\n"
            "def run(table):\n"
            "    a = ProcessPoolExecutor(initializer=init, initargs=(table,))\n"
            "    b = ProcessPoolExecutor(initializer=worker.init_worker)\n"
            "    return a, b\n",
        )
        assert result.findings == []

    def test_fires_in_tests_too(self, tmp_path):
        # PICKLE001 is ALL-scope: test code breaks at runtime the same.
        result = lint_snippet(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def test_run():\n"
            "    pool = ProcessPoolExecutor()\n"
            "    return pool.submit(lambda: 1)\n",
            name="tests/test_mod.py",
        )
        assert rules_hit(result) == ["PICKLE001"]


# ---------------------------------------------------------------------------
# OBS001: direct telemetry construction
# ---------------------------------------------------------------------------


class TestObs001:
    def test_direct_tracer(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from repro.obs import Tracer\n"
            "def serve():\n"
            "    tracer = Tracer()\n"
            "    return tracer\n",
        )
        assert rules_hit(result) == ["OBS001"]
        assert "Tracer()" in result.findings[0].message

    def test_direct_metrics_registry(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from repro.obs.metrics import MetricsRegistry\n"
            "def serve():\n"
            "    return MetricsRegistry()\n",
        )
        assert rules_hit(result) == ["OBS001"]

    def test_coerce_telemetry_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from repro.obs import coerce_telemetry\n"
            "def serve(telemetry=None):\n"
            "    return coerce_telemetry(telemetry)\n",
        )
        assert result.findings == []

    def test_obs_package_is_exempt(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "class Tracer:\n"
            "    pass\n"
            "def make():\n"
            "    return Tracer()\n",
            name="repro/obs/trace.py",
        )
        assert result.findings == []

    def test_unrelated_tracer_is_clean(self, tmp_path):
        # A Tracer imported from some non-obs package is not ours.
        result = lint_snippet(
            tmp_path,
            "from viztracer import Tracer\n"
            "def profile():\n"
            "    return Tracer()\n",
        )
        assert result.findings == []


# ---------------------------------------------------------------------------
# CACHE001: id(...) cache keys
# ---------------------------------------------------------------------------


class TestCache001:
    def test_direct_id_key(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def view(cache, pub):\n"
            "    return cache.get(id(pub))\n",
        )
        assert rules_hit(result) == ["CACHE001"]
        assert "id(...)" in result.findings[0].message

    def test_id_key_one_hop(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def view(cache, pub):\n"
            "    key = ('view', id(pub))\n"
            "    return cache.get_or_build(key, lambda: pub)\n",
        )
        assert rules_hit(result) == ["CACHE001"]

    def test_digest_key_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def view(cache, pub):\n"
            "    key = ('view', cache.publication_key(pub))\n"
            "    return cache.get_or_build(key, lambda: pub)\n",
        )
        assert result.findings == []

    def test_non_cache_receiver_is_clean(self, tmp_path):
        # id() into a plain dict registry is the documented weak-memo
        # idiom (finalizer-evicted), not an ArtifactCache key.
        result = lint_snippet(
            tmp_path,
            "def view(registry, pub):\n"
            "    return registry.get(id(pub))\n",
        )
        assert result.findings == []


# ---------------------------------------------------------------------------
# RANGE001: raw SA-range reads in the query layer
# ---------------------------------------------------------------------------


class TestRange001:
    READ = (
        "def answer(prefix, query):\n"
        "    lo, hi = query.sa_range\n"
        "    return prefix[hi + 1] - prefix[lo]\n"
    )

    def test_raw_read_in_query_layer(self, tmp_path):
        result = lint_snippet(tmp_path, self.READ, name="repro/query/answer.py")
        assert rules_hit(result) == ["RANGE001"]
        assert result.findings[0].line == 2

    def test_clipped_read_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from .workload import sa_bounds\n"
            "def answer(prefix, query):\n"
            "    lo, hi = sa_bounds(query, prefix.shape[0] - 1)\n"
            "    return prefix[hi + 1] - prefix[lo]\n",
            name="repro/query/answer.py",
        )
        assert result.findings == []

    def test_workload_module_owns_the_raw_range(self, tmp_path):
        result = lint_snippet(
            tmp_path, self.READ, name="repro/query/workload.py"
        )
        assert result.findings == []

    def test_other_layers_are_clean(self, tmp_path):
        result = lint_snippet(tmp_path, self.READ, name="repro/cli.py")
        assert result.findings == []

    def test_keyword_and_parameter_names_are_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def weights(scheme, sa_range):\n"
            "    return make(sa_range=sa_range)\n",
            name="repro/query/variance.py",
        )
        assert result.findings == []


# ---------------------------------------------------------------------------
# SHARD001: one shard runner
# ---------------------------------------------------------------------------


class TestShard001:
    LOOP = (
        "from ..engine.shard import run_shard\n"
        "def refresh(table, plan, keys, probs):\n"
        "    return [\n"
        "        run_shard('burel', table.subset(s.rows), keys=keys[s.rows],\n"
        "                  sa_distribution=probs)\n"
        "        for s in plan\n"
        "    ]\n"
    )

    def test_second_shard_runner_outside_parallel(self, tmp_path):
        result = lint_snippet(
            tmp_path, self.LOOP, name="repro/api/versioned.py"
        )
        assert rules_hit(result) == ["SHARD001"]
        assert result.findings[0].line == 4
        assert result.findings[0].function == "refresh"

    def test_module_attribute_call(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from repro.engine import shard\n"
            "def one(table, keys, probs):\n"
            "    return shard.run_shard('burel', table, keys=keys,\n"
            "                           sa_distribution=probs)\n",
            name="repro/experiments/sharded.py",
        )
        assert rules_hit(result) == ["SHARD001"]

    def test_parallel_layer_owns_the_runner(self, tmp_path):
        result = lint_snippet(
            tmp_path, self.LOOP, name="repro/parallel/_worker.py"
        )
        assert result.findings == []

    def test_session_runner_and_import_are_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from ..engine.shard import merge_pieces, run_shard\n"
            "__all__ = ['run_shard']\n"
            "def refresh(session, shards):\n"
            "    return session.shard_pieces('burel', shards, seed=7)\n",
            name="repro/api/versioned.py",
        )
        assert result.findings == []

    def test_tests_may_call_it(self, tmp_path):
        result = lint_snippet(
            tmp_path, self.LOOP, name="tests/test_shard.py"
        )
        assert result.findings == []


# ---------------------------------------------------------------------------
# CACHE002: identity-keyed memos
# ---------------------------------------------------------------------------


class TestCache002:
    def test_weak_key_dictionary(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import weakref\n"
            "_ENGINES = weakref.WeakKeyDictionary()\n",
        )
        assert rules_hit(result) == ["CACHE002"]
        assert "identity-keyed" in result.findings[0].message

    def test_imported_finalize_and_value_dictionary(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from weakref import WeakValueDictionary, finalize\n"
            "_VIEWS = WeakValueDictionary()\n"
            "def track(pub, registry):\n"
            "    finalize(pub, registry.pop, 0, None)\n",
        )
        assert [f.rule for f in result.findings] == ["CACHE002"] * 2
        assert [f.line for f in result.findings] == [2, 4]

    def test_dict_subscript_write(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def table_cube(table, build):\n"
            "    table.__dict__['_table_cube'] = build(table)\n",
        )
        assert rules_hit(result) == ["CACHE002"]
        assert "__dict__" in result.findings[0].message

    def test_dict_writes_one_hop(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def measure_cube(pub, dim, build):\n"
            "    memo = getattr(pub, '__dict__', None)\n"
            "    memo.setdefault('_measure_cubes', {})[dim] = build(pub)\n"
            "def table_cube(table, build):\n"
            "    memo = table.__dict__\n"
            "    memo['_table_cube'] = build(table)\n",
        )
        assert [f.line for f in result.findings] == [3, 6]

    def test_reads_and_plain_weakrefs_are_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import weakref\n"
            "def attached_cube(pub):\n"
            "    attached = getattr(pub, '__dict__', {})\n"
            "    if '_count_cube' in attached:\n"
            "        return attached['_count_cube']\n"
            "    return pub.__dict__.get('_count_cube')\n"
            "def probe(table, memo):\n"
            "    memo['k'] = weakref.ref(table)\n"
            "    return memo.setdefault('n', 0)\n",
        )
        assert result.findings == []

    def test_tests_are_exempt(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def fresh(pub):\n"
            "    pub.__dict__['_count_cube'] = None\n",
            name="tests/test_fixture.py",
        )
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def seed(view, p):\n"
            "    # reprolint: ignore[CACHE002] -- seeds the view's own field\n"
            "    view.__dict__['global_distribution'] = p\n",
        )
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["CACHE002"]


# ---------------------------------------------------------------------------
# DET001: set iteration feeding ordered output
# ---------------------------------------------------------------------------


class TestDet001:
    def test_for_over_set_literal(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def names(out):\n"
            "    for name in {'b', 'a'}:\n"
            "        out.append(name)\n",
        )
        assert rules_hit(result) == ["DET001"]

    def test_list_of_set_call(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def dedupe(items):\n"
            "    return list(set(items))\n",
        )
        assert rules_hit(result) == ["DET001"]

    def test_set_valued_name(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def dedupe(items):\n"
            "    seen = set(items)\n"
            "    return [x for x in seen]\n",
        )
        assert rules_hit(result) == ["DET001"]

    def test_sorted_set_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def dedupe(items):\n"
            "    return sorted(set(items))\n",
        )
        assert result.findings == []

    def test_membership_and_len_are_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def count(items, allowed):\n"
            "    wanted = set(allowed)\n"
            "    return len([x for x in items if x in wanted])\n",
        )
        assert result.findings == []


# ---------------------------------------------------------------------------
# Suppressions and SUP001
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def dedupe(items):\n"
            "    return list(set(items))"
            "  # reprolint: ignore[DET001] -- order-free: fed to a set\n",
        )
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["DET001"]

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def dedupe(items):\n"
            "    # reprolint: ignore[RNG001] -- wrong rule id\n"
            "    return list(set(items))\n",
        )
        assert rules_hit(result) == ["DET001"]

    def test_reasonless_suppression_is_inert_and_flagged(self, tmp_path):
        bare = "# reprolint: " + "ignore[DET001]"
        result = lint_snippet(
            tmp_path,
            "def dedupe(items):\n"
            f"    {bare}\n"
            "    return list(set(items))\n",
        )
        # The finding still fires AND the bare comment is reported.
        assert rules_hit(result) == ["DET001", "SUP001"]

    def test_multi_rule_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def sample(items):\n"
            "    # reprolint: ignore[RNG001,DET001] -- fixture stream\n"
            "    return np.random.default_rng(), list(set(items))\n",
        )
        assert result.findings == []
        assert sorted(f.rule for f in result.suppressed) == [
            "DET001",
            "RNG001",
        ]


class TestParseErrors:
    def test_syntax_error_becomes_finding(self, tmp_path):
        result = lint_snippet(tmp_path, "def broken(:\n    pass\n")
        assert rules_hit(result) == ["PARSE001"]
        assert "does not parse" in result.findings[0].message


# ---------------------------------------------------------------------------
# Baseline round-trips
# ---------------------------------------------------------------------------

RNG_SNIPPET = (
    "import numpy as np\n"
    "def sample():\n"
    "    return np.random.default_rng()\n"
)


class TestBaseline:
    def test_round_trip_and_apply(self, tmp_path):
        result = lint_snippet(tmp_path, RNG_SNIPPET)
        base = Baseline.from_findings(result.findings)
        path = tmp_path / "baseline.json"
        base.save(path)
        loaded = Baseline.load(path)
        assert [e.key for e in loaded.entries] == [
            e.key for e in base.entries
        ]
        # Applying the baseline grandfathers the finding.
        again = lint_paths(
            [tmp_path / "mod.py"], baseline=path, root=tmp_path
        )
        assert again.findings == []
        assert [f.rule for f in again.baselined] == ["RNG001"]
        assert again.baselined[0].baselined
        assert again.stale_baseline == []
        assert again.clean

    def test_matches_code_not_line_number(self, tmp_path):
        result = lint_snippet(tmp_path, RNG_SNIPPET)
        path = tmp_path / "baseline.json"
        Baseline.from_findings(result.findings).save(path)
        # Shift the finding down two lines: same code, new lineno.
        (tmp_path / "mod.py").write_text("# a comment\n\n" + RNG_SNIPPET)
        again = lint_paths(
            [tmp_path / "mod.py"], baseline=path, root=tmp_path
        )
        assert again.findings == []
        assert len(again.baselined) == 1

    def test_stale_entry_reported(self, tmp_path):
        result = lint_snippet(tmp_path, RNG_SNIPPET)
        path = tmp_path / "baseline.json"
        Baseline.from_findings(result.findings).save(path)
        (tmp_path / "mod.py").write_text("def sample():\n    return 1\n")
        again = lint_paths(
            [tmp_path / "mod.py"], baseline=path, root=tmp_path
        )
        assert again.findings == []
        assert len(again.stale_baseline) == 1
        assert again.stale_baseline[0].rule == "RNG001"

    def test_update_keeps_surviving_reasons(self, tmp_path):
        result = lint_snippet(tmp_path, RNG_SNIPPET)
        previous = Baseline(
            entries=[
                BaselineEntry(
                    rule=f.rule,
                    path=f.path,
                    code=f.code,
                    reason="documented fixture stream",
                )
                for f in result.findings
            ]
        )
        rebuilt = Baseline.from_findings(result.findings, previous)
        assert rebuilt.entries[0].reason == "documented fixture stream"

    def test_count_budget(self, tmp_path):
        # Two identical lines: one baseline entry with count=1 only
        # grandfathers the first occurrence.
        src = (
            "import numpy as np\n"
            "def a():\n"
            "    return np.random.default_rng()\n"
            "def b():\n"
            "    return np.random.default_rng()\n"
        )
        result = lint_snippet(tmp_path, src)
        assert len(result.findings) == 2
        one = Baseline(
            entries=[
                BaselineEntry(
                    rule="RNG001",
                    path=result.findings[0].path,
                    code=result.findings[0].code,
                    reason="first one only",
                )
            ]
        )
        new, old, stale = one.apply(result.findings)
        assert len(new) == 1 and len(old) == 1 and stale == []
        # from_findings folds duplicates into one count=2 entry.
        folded = Baseline.from_findings(result.findings)
        assert len(folded.entries) == 1
        assert folded.entries[0].count == 2

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json")
        with pytest.raises(BaselineError):
            Baseline.load(path)
        path.write_text('{"no": "findings"}')
        with pytest.raises(BaselineError):
            Baseline.load(path)
        with pytest.raises(BaselineError):
            Baseline.load(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# Reporters and registry
# ---------------------------------------------------------------------------


class TestReporting:
    def test_text_report(self, tmp_path):
        result = lint_snippet(tmp_path, RNG_SNIPPET)
        text = render_text(result)
        assert "mod.py:3: RNG001" in text
        assert "1 finding(s) (0 baselined, 0 suppressed) in 1 file(s)" in text

    def test_json_report(self, tmp_path):
        result = lint_snippet(tmp_path, RNG_SNIPPET)
        payload = json.loads(render_json(result))
        assert payload["summary"]["clean"] is False
        assert payload["summary"]["files_checked"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "RNG001"
        assert finding["path"] == "mod.py"
        assert finding["line"] == 3
        assert finding["code"] == "return np.random.default_rng()"

    def test_rule_listing(self):
        listing = render_rules()
        for rule_id in (
            "RNG001",
            "ALLOC001",
            "PICKLE001",
            "OBS001",
            "CACHE001",
            "CACHE002",
            "DET001",
            "RANGE001",
            "SHARD001",
            "SUP001",
        ):
            assert rule_id in listing

    def test_registry_yields_fresh_instances(self):
        first, second = all_rules(), all_rules()
        assert [r.rule_id for r in first] == [r.rule_id for r in second]
        assert all(a is not b for a, b in zip(first, second))


class TestEngine:
    def test_missing_path_is_usage_error(self, tmp_path):
        from repro.analysis import UsageError

        with pytest.raises(UsageError):
            LintEngine(root=tmp_path).run(["nope"])

    def test_skips_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        result = LintEngine(root=tmp_path).run([tmp_path])
        assert result.files_checked == 1


# ---------------------------------------------------------------------------
# The meta-test: this repo lints clean against its committed baseline
# ---------------------------------------------------------------------------


def test_repo_is_clean_against_committed_baseline():
    baseline = REPO_ROOT / "analysis" / "baseline.json"
    assert baseline.is_file(), "analysis/baseline.json must be committed"
    result = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"],
        baseline=baseline,
        root=REPO_ROOT,
    )
    assert result.findings == [], render_text(result)
    # The baseline carries no dead weight and every entry is justified.
    assert result.stale_baseline == []
    for entry in Baseline.load(baseline).entries:
        assert entry.reason, f"baseline entry {entry.key} needs a reason"
        assert "grandfathered by --update-baseline" not in entry.reason
