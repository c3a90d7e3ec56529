import hashlib
import warnings
from fractions import Fraction

import pytest

from rankfair.bench import (build_corpus, group_instances, load_ratings,
                            load_users, render_machine, render_text, run_bench)
from rankfair.cli import main
from rankfair.documents import DocumentError
from rankfair.valuations import AssignmentValuation


def test_load_ratings_bundled_corpus(ratings_path):
    rows = load_ratings(ratings_path)
    assert len(rows) >= 200
    users, items, values = zip(*rows)
    assert all(isinstance(v, int) and v >= 0 for v in values)
    assert len(set(items)) == 30


def test_load_users_bundled_corpus(users_path):
    table = load_users(users_path)
    assert len(table) == 20
    sample = next(iter(table.values()))
    assert set(sample) == {"gender", "age", "occupation", "zip"}


def test_load_ratings_rejects_bad_rows(tmp_path):
    bad = tmp_path / "r.dat"
    bad.write_text("1::200::abc\n")
    with pytest.raises(DocumentError) as err:
        load_ratings(str(bad))
    assert "line 1" in str(err.value)
    negative = tmp_path / "neg.dat"
    negative.write_text("1::200::-2\n")
    with pytest.raises(DocumentError):
        load_ratings(str(negative))


def test_custom_delimiter_and_columns(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("5,u1,i1\n3,u1,i2\n")
    rows = load_ratings(str(path), delimiter=",",
                        columns={"rating": 0, "user": 1, "item": 2})
    assert rows == [("u1", "i1", 5), ("u1", "i2", 3)]


def test_build_corpus_warns_on_attributeless_raters(ratings_path, users_path):
    ratings = load_ratings(ratings_path)
    users = load_users(users_path)
    ratings.append(("999", "101", 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        corpus = build_corpus(ratings, users)
    assert any("999" in str(w.message) for w in caught)
    assert "999" in corpus.dropped_users
    assert all(user != "999" for user, _, _ in corpus.ratings)


def test_group_instances_models(ratings_path, users_path):
    corpus = build_corpus(load_ratings(ratings_path), load_users(users_path))
    sample = corpus.items()[:6]
    pair = group_instances(corpus, "gender", sample)
    assert set(pair) == {"ratings", "norm"}
    raw, norm = pair["ratings"], pair["norm"]
    assert raw.agents == norm.agents == ("F", "M")
    assert raw.items == norm.items == tuple(sorted(sample))
    for agent in norm.agents:
        assert isinstance(norm.valuation(agent), AssignmentValuation)
        full = norm.value(agent, frozenset(norm.items))
        assert full == 1 or full == 0
    # norm keeps the ratings ordering of bundles, only rescaled
    assert norm.value("F", frozenset(sample[:3])) * raw.value("F", frozenset(raw.items)) \
        == raw.value("F", frozenset(sample[:3]))


def test_unknown_attribute_rejected(ratings_path, users_path):
    corpus = build_corpus(load_ratings(ratings_path), load_users(users_path))
    with pytest.raises(DocumentError):
        group_instances(corpus, "shoe_size", corpus.items()[:3])


def test_run_bench_is_bit_identical(ratings_path, users_path):
    corpus = build_corpus(load_ratings(ratings_path), load_users(users_path))
    first = run_bench(corpus, "gender", items_per_run=6, runs=3, seed=9)
    second = run_bench(corpus, "gender", items_per_run=6, runs=3, seed=9)
    assert render_machine(first) == render_machine(second)
    assert render_text(first) == render_text(second)
    assert first.runs == 3 and first.group_count == 2
    assert len(first.run_results) == 3


# SHA-256 of `bench --items 20 --runs 1 --format machine` on the bundled
# corpus, recorded before the envy-graph baseline read bundle-plus-one values
# off its valuations' matchings.
_BENCH_PINS = [
    ("occupation", 1, "1269dec8a09012b3e64f445971083cecc302bdef12ae449c02b1e1ad5e6d4735"),
    ("occupation", 2, "e3f2b1808af6fe043c0f1798437542199cd7c57b61acff42e18a3009f153edd6"),
    ("occupation", 3, "067c6bd4bd5301998c1bd7fb713e6453d3a3341679faa87207fb12daec419dbb"),
    ("gender", 1, "b362da59ee1767ad0b3590dac5dc17581f18ce0dd25e02adad721c8a45067441"),
    ("gender", 2, "886fcc798a509a6053fe4678ecfa60aad2b44a2d3d2b0f102e46777df528d4d8"),
    ("gender", 3, "3b44883407e27b9becd748ea37f87ee396b05bd8e7fc4d25ae767b981ea1520a"),
]


@pytest.mark.parametrize("attribute,seed,expected", _BENCH_PINS)
def test_bench_machine_output_is_pinned(capsys, ratings_path, users_path,
                                        attribute, seed, expected):
    code = main(["bench", "--ratings", ratings_path, "--users", users_path,
                 "--attribute", attribute, "--items", "20", "--runs", "1",
                 "--seed", str(seed), "--format", "machine"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_run_bench_cells_and_outcomes(ratings_path, users_path):
    corpus = build_corpus(load_ratings(ratings_path), load_users(users_path))
    report = run_bench(corpus, "gender", items_per_run=8, runs=3, seed=11)
    assert set(report.cells) == {(alg, model)
                                 for alg in ("envy-graph", "eit-general")
                                 for model in ("ratings", "norm")}
    for run in report.run_results:
        assert len(run.items) == 8
        for outcome in run.outcomes.values():
            assert outcome.pof >= 1
            if outcome.algorithm == "eit-general":
                assert outcome.waste_count == 0 and not outcome.exhausted
    machine = render_machine(report)
    assert machine["attribute"] == "gender"
    assert machine["runs"] == 3
    assert len(machine["cells"]) == 4
    for cell in machine["cells"]:
        assert isinstance(cell["mean_pof"], str)
        assert isinstance(cell["mean_waste_pct"], str)
        assert cell["exhausted_runs"] == 0


def test_run_bench_rejects_oversized_sample(ratings_path, users_path):
    corpus = build_corpus(load_ratings(ratings_path), load_users(users_path))
    with pytest.raises(DocumentError):
        run_bench(corpus, "gender", items_per_run=10_000, runs=1, seed=1)


def test_render_text_table_shape(ratings_path, users_path):
    corpus = build_corpus(load_ratings(ratings_path), load_users(users_path))
    report = run_bench(corpus, "age", items_per_run=5, runs=2, seed=4)
    text = render_text(report)
    lines = text.splitlines()
    assert lines[0].startswith("attribute: age")
    header = lines[2]
    for column in ("envy-graph/ratings", "envy-graph/norm",
                   "eit-general/ratings", "eit-general/norm"):
        assert column in header
    assert lines[3].startswith("PoF")
    assert lines[4].startswith("Waste")
