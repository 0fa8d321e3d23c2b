"""Tests for the CSV loader and the command-line interface."""

import csv

import numpy as np
import pytest

from repro.cli import run
from repro.io import load_csv_table, read_csv_rows


@pytest.fixture()
def patients_csv(tmp_path, patients):
    """Table 1 written out as raw CSV microdata."""
    path = tmp_path / "patients.csv"
    schema = patients.schema
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Weight", "Age", "Disease", "City"])
        cities = ["north", "south", "north", "east", "south", "east"]
        for i in range(patients.n_rows):
            writer.writerow(
                [
                    int(patients.qi[i, 0]),
                    int(patients.qi[i, 1]),
                    schema.sensitive.values[int(patients.sa[i])],
                    cities[i],
                ]
            )
    return path


class TestLoader:
    def test_numerical_columns(self, patients_csv):
        table = load_csv_table(
            patients_csv, ["Weight", "Age"], "Disease",
            numerical=["Weight", "Age"],
        )
        assert table.n_rows == 6
        assert table.schema.qi[0].lo == 50
        assert table.schema.qi[0].hi == 80

    def test_categorical_columns_get_flat_hierarchy(self, patients_csv):
        table = load_csv_table(
            patients_csv, ["City", "Age"], "Disease", numerical=["Age"]
        )
        city = table.schema.qi[0]
        assert city.hierarchy is not None
        assert city.hierarchy.n_leaves == 3
        assert city.hierarchy.height == 1

    def test_sensitive_domain_sorted(self, patients_csv):
        table = load_csv_table(
            patients_csv, ["Age"], "Disease", numerical=["Age"]
        )
        values = table.schema.sensitive.values
        assert list(values) == sorted(values)
        assert table.sa_cardinality == 6

    def test_missing_column_rejected(self, patients_csv):
        with pytest.raises(ValueError, match="missing columns"):
            load_csv_table(patients_csv, ["Nope"], "Disease")

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("a,b\n")
        with pytest.raises(ValueError, match="empty"):
            load_csv_table(empty, ["a"], "b")


class TestCli:
    def test_generalize_end_to_end(self, patients_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = run(
            [
                "generalize", str(patients_csv),
                "--qi", "Weight,Age",
                "--numerical", "Weight,Age",
                "--sensitive", "Disease",
                "--beta", "1",
                "-o", str(out),
            ]
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 6
        captured = capsys.readouterr().out
        assert "measured privacy" in captured

    def test_perturb_end_to_end(self, patients_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = run(
            [
                "perturb", str(patients_csv),
                "--qi", "Weight,Age,City",
                "--numerical", "Weight,Age",
                "--sensitive", "Disease",
                "--beta", "2",
                "-o", str(out),
            ]
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 6
        assert (tmp_path / "out.json").exists()
        assert "kept intact" in capsys.readouterr().out

    def test_basic_flag(self, patients_csv, tmp_path):
        out = tmp_path / "out.csv"
        code = run(
            [
                "generalize", str(patients_csv),
                "--qi", "Weight,Age",
                "--numerical", "Weight,Age",
                "--sensitive", "Disease",
                "--beta", "1.5",
                "--basic",
                "-o", str(out),
            ]
        )
        assert code == 0

    def test_deterministic_perturbation_seed(self, patients_csv, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(
                [
                    "perturb", str(patients_csv),
                    "--qi", "Age",
                    "--numerical", "Age",
                    "--sensitive", "Disease",
                    "--seed", "42",
                    "-o", str(out),
                ]
            )
            outs.append(read_csv_rows(out))
        assert outs[0] == outs[1]


def _write_table_csv(table, path):
    labels = table.schema.sensitive.values
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([attr.name for attr in table.schema.qi] + ["sa"])
        for i in range(table.n_rows):
            writer.writerow(
                [int(v) for v in table.qi[i]] + [labels[int(table.sa[i])]]
            )


class TestAppendCli:
    def test_append_end_to_end(self, tmp_path, capsys):
        from repro.dataset.synthetic import synthetic
        from repro.service import PublicationStore

        table = synthetic(
            3_000, qi_dims=3, sa_cardinality=8, skew=0.8, seed=3,
            correlation=0.0,
        )
        base = tmp_path / "base.csv"
        _write_table_csv(table, base)
        # Delta rows sampled from the base so every value stays inside
        # the domains the CSV loader infers from the base file.
        rng = np.random.default_rng(11)
        pick = rng.choice(table.n_rows, size=150, replace=True)
        delta_table = type(table)(table.schema, table.qi[pick], table.sa[pick])
        delta = tmp_path / "delta.csv"
        _write_table_csv(delta_table, delta)

        store_dir = tmp_path / "store"
        code = run(
            [
                "append", str(base), str(delta),
                "--store", str(store_dir),
                "--name", "syn",
                "--qi", "q0,q1,q2",
                "--numerical", "q0,q1,q2",
                "--sensitive", "sa",
                "--beta", "2",
                "--seed", "17",
                "--shards", "3",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "appended 150 tuples" in captured
        assert "lineage 'syn':" in captured

        # The lineage round-trips through a fresh store handle.
        store = PublicationStore(store_dir)
        records = store.versions("syn")
        assert len(records) == 2
        assert records[0].parent_id is None
        assert records[1].parent_id == records[0].pub_id
        assert store.latest("syn").pub_id == records[1].pub_id
        assert records[1].n_rows == 3_150

    def test_append_refuses_uncertifiable_contract(self, tmp_path, capsys):
        from repro.dataset.synthetic import synthetic

        table = synthetic(
            2_000, qi_dims=2, sa_cardinality=6, skew=0.8, seed=4,
            correlation=0.0,
        )
        base = tmp_path / "base.csv"
        _write_table_csv(table, base)
        delta = tmp_path / "delta.csv"
        _write_table_csv(
            type(table)(table.schema, table.qi[:50], table.sa[:50]), delta
        )
        code = run(
            [
                "append", str(base), str(delta),
                "--store", str(tmp_path / "store"),
                "--qi", "q0,q1",
                "--numerical", "q0,q1",
                "--sensitive", "sa",
                "--beta", "2",
                "--seed", "17",
                "--shards", "2",
                "--require-beta", "0.001",
            ]
        )
        assert code == 1
        assert "refused" in capsys.readouterr().err


class TestQueryCli:
    def test_workers_set_threads_not_answers(self, tmp_path, capsys):
        """``query --workers N`` sets the serving thread count; the
        estimates written are the same at every N."""
        import json

        from repro.dataset.synthetic import synthetic

        table = synthetic(
            2_000, qi_dims=2, sa_cardinality=6, skew=0.8, seed=4,
            correlation=0.0,
        )
        data = tmp_path / "data.csv"
        _write_table_csv(table, data)
        store = str(tmp_path / "store")
        code = run(
            [
                "publish", str(data), "--store", store,
                "--qi", "q0,q1", "--numerical", "q0,q1", "--sensitive", "sa",
                "--algorithm", "perturb", "--beta", "2", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        pub_id = [
            line.split("id: ", 1)[1]
            for line in out.splitlines()
            if line.startswith("id: ")
        ][0]
        payloads = []
        for workers in ("1", "2"):
            path = tmp_path / f"answers-{workers}.json"
            code = run(
                [
                    "query", "--store", store, "--id", pub_id[:12],
                    "--queries", "200", "--theta", "0.1",
                    "--workers", workers, "-o", str(path),
                ]
            )
            assert code == 0, capsys.readouterr()
            payloads.append(json.loads(path.read_text()))
        assert len(payloads[0]["estimates"]) == 200
        assert payloads[1] == payloads[0]


class TestLintCli:
    """``repro lint`` exit codes are CLI-conventional: 0 clean, 1
    findings, 2 usage error."""

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x + 1\n")
        assert run(["lint", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.default_rng()\n"
        )
        assert run(["lint", str(dirty), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RNG001" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert run(["lint", str(tmp_path / "nope.py")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        code = run(
            ["lint", str(clean), "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_json_output_shape(self, tmp_path, capsys):
        import json as json_mod

        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.default_rng()\n"
        )
        assert run(["lint", str(dirty), "--json", "--no-baseline"]) == 1
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["summary"]["clean"] is False
        assert payload["findings"][0]["rule"] == "RNG001"

    def test_update_baseline_round_trip(self, tmp_path, capsys):
        import json as json_mod

        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.default_rng()\n"
        )
        baseline = tmp_path / "baseline.json"
        code = run(
            ["lint", str(dirty), "--update-baseline",
             "--baseline", str(baseline)]
        )
        assert code == 0
        payload = json_mod.loads(baseline.read_text())
        assert payload["findings"][0]["rule"] == "RNG001"
        capsys.readouterr()
        # Linting against the fresh baseline is now clean.
        assert run(["lint", str(dirty), "--baseline", str(baseline)]) == 0

    def test_list_rules(self, capsys):
        assert run(["lint", "--list-rules"]) == 0
        assert "RNG001" in capsys.readouterr().out
