"""Dataset pipeline: formats, splitting, priors, normalization, synthesis."""

import numpy as np
import pytest

import mgsgan
from mgsgan import data
from mgsgan.data import (NOISE_STD, SpectralDataset, SplitSpec,
                         class_priors, fit_normalization, load_csv, load_dataset,
                         make_synthetic, normalize_pair, save_bin, save_csv,
                         save_dataset, split_tttr)
from mgsgan.errors import ContractError, DataError
from mgsgan.models import compute_class_domains


def _tiny_ds():
    samples = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    labels = np.array([0, 1, 0])
    return SpectralDataset(samples, labels, 2)


def test_csv_round_trip(tmp_path):
    ds = _tiny_ds()
    path = tmp_path / "tiny.csv"
    save_csv(path, ds)
    back = load_csv(path)
    assert back.size == 3 and back.band_count == 2 and back.class_count == 2
    np.testing.assert_array_equal(back.samples, ds.samples)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_csv_short_row_errors_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("d=2,N=2\n0.0,1.0,0\n2.0,1\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_csv(path)
    assert "line 3" in str(err.value)


def test_csv_label_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("d=1,N=2\n0.5,0\n1.5,2\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_csv(path)
    assert "label" in str(err.value)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("bands=2\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_csv(path)


# name -> body after the header "d=3,N=2". Files the loop reads, then files it refuses.
_CSV_READ = {
    "plain": "0.5,-1.25,3e-5,0\n1,2,3,1\n",
    "blank-lines": "\n0.5,-1.25,3e-5,0\n\n1,2,3,1\n\n",
    "crlf": "0.5,-1.25,3e-5,0\r\n1,2,3,1\r\n",
    "padded-fields": " 0.5 ,\t-1.25, 3e-5 , 0 \n+1,2.,.3,+1\n",
    "repr-digits": "0.1,0.30000000000000004,-0.0,0\n5e-324,1.7976931348623157e+308,2,1\n",
    "whitespace-only-line": "0.5,-1.25,3e-5,0\n   \t\n1,2,3,1\n",
    "underscore-label": "0.5,-1.25,3e-5,0\n1,2,3,0_1\n",
    "underscore-sample": "0.5,-1_0,3e-5,0\n1,2,3,1\n",
}
_CSV_REFUSED = {
    "label-1.0": "0.5,-1.25,3e-5,0\n1,2,3,1.0\n",
    "short-row": "0.5,-1.25,0\n1,2,3,1\n",
    "long-row": "0.5,-1.25,3e-5,7,0\n1,2,3,1\n",
    "trailing-comma": "0.5,-1.25,3e-5,0,\n1,2,3,1\n",
    "hash-line": "#x\n0.5,-1.25,3e-5,0\n1,2,3,1\n",
    "nan": "0.5,nan,3e-5,0\n1,2,3,1\n",
    "inf": "0.5,-1.25,3e-5,0\n1,inf,3,1\n",
    "overflow-1e400": "0.5,-1.25,1e400,0\n1,2,3,1\n",
    "label-out-of-range": "0.5,-1.25,3e-5,0\n1,2,3,2\n",
    "huge-label": "0.5,-1.25,3e-5,0\n1,2,3,99999999999999999999999\n",
    "missing-class": "0.5,-1.25,3e-5,0\n1,2,3,0\n",
    "empty-body": "",
}
# the files numpy's C reader takes; every other one goes to the per-line loop
_CSV_BY_C_READER = {"plain", "blank-lines", "crlf", "padded-fields", "repr-digits"}


@pytest.mark.parametrize("name", [*_CSV_READ, *_CSV_REFUSED])
def test_csv_readers_agree_bit_for_bit(tmp_path, monkeypatch, name):
    path = tmp_path / "edge.csv"
    body = _CSV_READ.get(name, _CSV_REFUSED.get(name))
    path.write_bytes(b"d=3,N=2\n" + body.encode("utf-8"))

    def outcome(read):
        try:
            ds = read(path)
        except DataError as exc:
            return str(exc)
        return ds.samples.tobytes(), ds.samples.shape, ds.labels.tobytes(), ds.class_count

    want = outcome(data._read_csv_lines)
    assert isinstance(want, str) == (name in _CSV_REFUSED)
    loop_calls = []
    loop = data._read_csv_lines
    monkeypatch.setattr(data, "_read_csv_lines", lambda p: loop_calls.append(p) or loop(p))
    assert outcome(data._read_csv) == want
    assert bool(loop_calls) == (name not in _CSV_BY_C_READER)


def test_csv_with_undecodable_body_is_data_error(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"d=2,N=2\n" + bytes(range(256)) * 4)
    with pytest.raises(DataError, match="not a UTF-8 text CSV file"):
        load_csv(path)


def test_csv_header_wider_than_the_file_skips_the_c_reader(tmp_path, monkeypatch):
    # numpy's reader sets up every column before it reads a row
    path = tmp_path / "wide.csv"
    path.write_text("d=1000000,N=1\n1,2,0\n", encoding="utf-8")
    monkeypatch.setattr(data.np, "loadtxt", lambda *a, **k: pytest.fail("C reader called"))
    with pytest.raises(DataError, match="line 2: expected 1000001 fields, got 3"):
        load_csv(path)


def test_csv_reader_matches_the_loop_on_a_synthetic_set(tmp_path):
    ds = make_synthetic(3, 4, 24, [30, 20, 10, 5], overlap=0.4)
    path = tmp_path / "synth.csv"
    save_csv(path, ds)
    fast, slow = load_csv(path), data._read_csv_lines(path)
    assert fast.samples.flags.c_contiguous and fast.labels.flags.c_contiguous
    assert fast.samples.tobytes() == slow.samples.tobytes() == ds.samples.tobytes()
    assert fast.labels.tobytes() == slow.labels.tobytes() == ds.labels.tobytes()


def test_bin_round_trip_bit_identical(tmp_path):
    ds = make_synthetic(5, 3, 12, [10, 6, 4], overlap=0.2)
    norm = fit_normalization(ds)
    ds = SpectralDataset(norm.apply(ds.samples), ds.labels, 3, normalization=norm)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_bin(p1, ds)
    back = load_dataset(p1)
    np.testing.assert_array_equal(back.samples, ds.samples)
    np.testing.assert_array_equal(back.labels, ds.labels)
    save_bin(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_bin_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataError):
        load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_sample_rejected(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"d=2,N=2\n0.0,1.0,0\n2.0,{value},1\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"sample 1 .*band 1 is {value}"):
        load_csv(path)


def test_bin_non_finite_sample_rejected(tmp_path):
    ds = _tiny_ds()
    ds.samples[2, 0] = np.nan  # after the constructor's check, as a foreign writer might
    path = tmp_path / "bad.bin"
    save_bin(path, ds)
    with pytest.raises(DataError, match="sample 2 .*band 0 is nan"):
        load_dataset(path)


def test_split_rounding_examples():
    rng = np.random.default_rng(0)
    ds = SpectralDataset(rng.standard_normal((220, 3)),
                         np.array([0] * 200 + [1] * 20), 2)
    train, test = split_tttr(ds, SplitSpec(tttr=0.1, seed=4))
    assert train.class_sizes()[0] == 20 and test.class_sizes()[0] == 180
    train, test = split_tttr(ds, SplitSpec(tttr=0.05, seed=4))
    assert train.class_sizes()[1] == 1 and test.class_sizes()[1] == 19


def test_split_union_and_disjointness():
    ds = make_synthetic(9, 3, 8, [25, 13, 7], overlap=0.1)
    train, test = split_tttr(ds, SplitSpec(tttr=0.3, seed=2))
    assert train.size + test.size == ds.size
    combined = np.concatenate([train.samples, test.samples])
    assert np.array_equal(np.sort(combined, axis=0), np.sort(ds.samples, axis=0))
    # disjoint: every original row appears exactly once in the union
    orig = {row.tobytes() for row in ds.samples}
    got = [row.tobytes() for row in combined]
    assert len(got) == len(orig) and set(got) == orig


def test_split_deterministic_per_seed():
    ds = make_synthetic(3, 2, 6, [30, 12], overlap=0.0)
    a1, b1 = split_tttr(ds, SplitSpec(tttr=0.25, seed=7))
    a2, b2 = split_tttr(ds, SplitSpec(tttr=0.25, seed=7))
    np.testing.assert_array_equal(a1.samples, a2.samples)
    np.testing.assert_array_equal(b1.labels, b2.labels)
    a3, _ = split_tttr(ds, SplitSpec(tttr=0.25, seed=8))
    assert a1.samples.tobytes() != a3.samples.tobytes()


def test_split_proportions_within_one_sample():
    ds = make_synthetic(13, 3, 6, [101, 57, 23], overlap=0.0)
    tttr = 0.37
    train, _ = split_tttr(ds, SplitSpec(tttr=tttr, seed=0))
    for j, size in enumerate(ds.class_sizes()):
        assert abs(train.class_sizes()[j] - tttr * size) <= 1.0


def test_class_priors_balanced_and_imbalanced():
    ds = SpectralDataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]), 2)
    np.testing.assert_allclose(class_priors(ds).p_real, [0.5, 0.5], atol=1e-15)
    ds = SpectralDataset(np.zeros((100, 2)), np.array([0] * 90 + [1] * 10), 2)
    np.testing.assert_allclose(class_priors(ds).p_real, [0.9, 0.1], atol=1e-15)


def test_class_priors_sum_to_one_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, n, size=int(rng.integers(n * 2, 200)))
        labels[:n] = np.arange(n)
        ds = SpectralDataset(np.zeros((labels.size, 2)), labels, n)
        assert abs(class_priors(ds).p_real.sum() - 1.0) < 1e-12


def test_normalize_pair_ranges():
    ds = make_synthetic(22, 2, 10, [60, 20], overlap=0.3)
    train_raw, test_raw = split_tttr(ds, SplitSpec(tttr=0.5, seed=0))
    train, test = normalize_pair(train_raw, test_raw)
    assert train.samples.min() >= -1.0 and train.samples.max() <= 1.0
    assert test.samples.min() >= -1.0 and test.samples.max() <= 1.0


def test_synthetic_determinism():
    a = make_synthetic(42, 3, 16, [20, 10, 5], overlap=0.4)
    b = make_synthetic(42, 3, 16, [20, 10, 5], overlap=0.4)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    c = make_synthetic(43, 3, 16, [20, 10, 5], overlap=0.4)
    assert a.samples.tobytes() != c.samples.tobytes()


def test_synthetic_zero_overlap_template_separation():
    for seed in (1, 2, 3):
        ds = make_synthetic(seed, 4, 32, [30, 30, 30, 30], overlap=0.0)
        means = np.stack([ds.samples[ds.labels == j].mean(axis=0) for j in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) >= 5.0 * NOISE_STD


def test_synthetic_imbalance_construction():
    ds = make_synthetic(2, 2, 8, [1000, 20], overlap=0.2)
    sizes = ds.class_sizes()
    assert sizes[0] == 1000 and sizes[1] == 20 and sizes[0] / sizes[1] == 50.0


def test_synthetic_contract_checks():
    with pytest.raises(ContractError):
        make_synthetic(0, 2, 8, [10], overlap=0.0)
    with pytest.raises(ContractError):
        make_synthetic(0, 2, 8, [10, 1], overlap=0.0)
    with pytest.raises(ContractError):
        make_synthetic(0, 2, 8, [10, 10], overlap=1.5)


def test_negative_seeds_rejected():
    # numpy's generators take only seeds >= 0 and raise a bare ValueError otherwise
    with pytest.raises(ContractError, match="seed"):
        make_synthetic(-1, 2, 8, [10, 10], overlap=0.0)
    with pytest.raises(ContractError, match="seed"):
        SplitSpec(tttr=0.5, seed=-1)


def test_domains_contain_heldout_samples():
    # boxes computed from the train split contain >= 99% of held-out samples
    ds = make_synthetic(77, 3, 24, [200, 200, 200], overlap=0.3)
    train_raw, test_raw = split_tttr(ds, SplitSpec(tttr=0.5, seed=5))
    train, test = normalize_pair(train_raw, test_raw)
    domains = compute_class_domains(train, margin=0.05)
    total = inside = 0
    for j in range(3):
        rows = test.samples[test.labels == j]
        inside += int(domains[j].contains(rows).sum())
        total += rows.shape[0]
    assert inside / total >= 0.99


def test_save_dataset_format_dispatch(tmp_path):
    ds = _tiny_ds()
    save_dataset(tmp_path / "x.csv", ds)
    save_dataset(tmp_path / "x.bin", ds)
    assert load_dataset(tmp_path / "x.csv").size == 3
    assert load_dataset(tmp_path / "x.bin").size == 3
