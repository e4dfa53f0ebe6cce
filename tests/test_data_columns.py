"""A loaded dataset held as columns, and its shuffled views, against the
list-building load_csv and shuffled they replaced; the bytes per row
that each holds."""

import csv
import math
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fabboo import (AttributeSpec, DataError, DatasetSchema, Xorshift64Star,
                    generate, load_csv, permutation, preset, save_csv,
                    shuffled, with_overrides)
from fabboo.data import NEGATIVE, POSITIVE, Dataset, Instance, _rows

# ------------------------------------------------------ reference oracle


def reference_load_csv(path, schema):
    """load_csv as written before it held columns: one Instance, features
    tuple and float per value is built per row, in file order."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _rows(path, csv.reader(fh))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file (no header row)")
        col = {name: i for i, name in enumerate(header)}
        if len(col) < len(header):
            dup = next(h for i, h in enumerate(header) if col[h] != i)
            raise DataError(f"{path}: duplicate column {dup!r}")
        known = [a.name for a in schema.attributes] + [schema.label_name]
        for name in known:
            if name not in col:
                raise DataError(f"{path}: missing column {name!r}")
        extra = [name for name in header if name not in known]
        if extra:
            raise DataError(f"{path}: unknown column {extra[0]!r}")

        instances = []
        prot_idx = schema.protected_index
        width = len(header)
        for rownum, raw in enumerate(reader, start=1):
            if len(raw) != width:
                raise DataError(f"{path}: wrong field count at row {rownum}")
            cells = [c.strip() for c in raw]
            feats = []
            for a in schema.attributes:
                token = cells[col[a.name]]
                if token == "":
                    raise DataError(f"{path}: missing value at row {rownum}, column {a.name!r}")
                if a.kind == "num":
                    try:
                        value = float(token)
                    except ValueError:
                        raise DataError(
                            f"{path}: non-numeric value {token!r} at row {rownum}, "
                            f"column {a.name!r}")
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: non-finite value {token!r} at row {rownum}, "
                            f"column {a.name!r}")
                    feats.append(value)
                else:
                    if token not in a.categories:
                        if a.name == schema.protected_attribute:
                            raise DataError(f"unmapped protected value at row {rownum}")
                        raise DataError(
                            f"{path}: value {token!r} outside alphabet at row {rownum}, "
                            f"column {a.name!r}")
                    feats.append(token)
            label_token = cells[col[schema.label_name]]
            if label_token not in schema.label_values:
                raise DataError(f"unmapped label value at row {rownum}")
            label = POSITIVE if label_token == schema.positive_value else NEGATIVE
            group = feats[prot_idx] == schema.protected_value
            instances.append(Instance(tuple(feats), group, label, rownum))
    return instances


def reference_shuffled(instances, seed):
    """shuffled as written before it returned a view: a new list of new
    Instances, renumbered 1..n."""
    if not instances:
        raise DataError("cannot shuffle an empty dataset")
    perm = permutation(len(instances), seed)
    out = []
    for newpos, src in enumerate(perm, start=1):
        inst = instances[src]
        out.append(Instance(inst.features, inst.group, inst.label, newpos))
    return out


# an Adult-shaped schema: numeric and categorical attributes interleaved,
# a protected attribute that is not the last, a non-protected alphabet of
# 41 values (as native-country's) and one past 256 values
COUNTRIES = tuple(f"country-{k}" for k in range(41))
ZIPS = tuple(f"z{k:03d}" for k in range(300))
ADULT_LIKE = DatasetSchema(
    attributes=(AttributeSpec("age", "num"),
                AttributeSpec("workclass", "cat", ("Private", "State-gov",
                                                   "Never-worked")),
                AttributeSpec("sex", "cat", ("Female", "Male")),
                AttributeSpec("hours", "num"),
                AttributeSpec("country", "cat", COUNTRIES),
                AttributeSpec("zip", "cat", ZIPS)),
    protected_attribute="sex", protected_value="Female",
    label_name="income", label_values=(">50K", "<=50K"), positive_value=">50K")


def write_adult_like(path, rows, seed):
    rng = Xorshift64Star(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        # the columns in another order than the schema's
        writer.writerow(["income", "zip", "country", "hours", "sex",
                         "workclass", "age"])
        for _ in range(rows):
            writer.writerow([
                (">50K", "<=50K")[rng.below(2)], ZIPS[rng.below(300)],
                f" {COUNTRIES[rng.below(41)]} ", rng.below(99) + 0.5,
                ("Female", "Male")[rng.below(2)],
                ("Private", "State-gov", "Never-worked")[rng.below(3)],
                rng.normal(40.0, 12.0)])


def ratio_fixed_csv(path, rows, seed=1):
    gen = with_overrides(preset("ratio_fixed"), length=rows, seed=seed)
    save_csv(path, gen.schema(), generate(gen))
    return gen.schema()


def assert_same_instances(got, want):
    """Equal instances, served by iteration and by indexing, with the
    reference's types."""
    assert len(got) == len(want)
    assert list(got) == want
    assert [got[k] for k in range(len(got))] == want
    assert got[-1] == want[-1]
    assert got[5:9] == want[5:9] and got[::-7] == want[::-7]
    for inst in (next(iter(got)), got[len(got) // 2]):
        assert type(inst) is Instance and type(inst.features) is tuple
        assert type(inst.group) is bool and type(inst.label) is int


@pytest.mark.parametrize("kind", ["ratio_fixed", "adult_like"])
def test_columns_match_the_reference_in_both_orders(tmp_path, kind):
    path = tmp_path / "data.csv"
    for seed in (1, 2, 3):
        if kind == "ratio_fixed":
            schema = ratio_fixed_csv(path, 600, seed)
        else:
            schema = ADULT_LIKE
            write_adult_like(path, 600, seed)
        stored, want = load_csv(path, schema), reference_load_csv(path,
                                                                  schema)
        assert_same_instances(stored, want)
        for s in (seed, seed + 10):
            view = shuffled(stored, s)
            assert_same_instances(view, reference_shuffled(want, s))
            # a view of a view, and a view of a plain list
            assert_same_instances(shuffled(view, 7), reference_shuffled(
                reference_shuffled(want, s), 7))
            assert_same_instances(shuffled(want, s),
                                  reference_shuffled(want, s))


def test_served_categories_are_the_alphabets_own(tmp_path):
    path = tmp_path / "data.csv"
    write_adult_like(path, 50, 1)
    for inst in shuffled(load_csv(path, ADULT_LIKE), 1):
        assert inst.features[4] is COUNTRIES[COUNTRIES.index(
            inst.features[4])]
        assert inst.features[5] is ZIPS[ZIPS.index(inst.features[5])]


def test_a_view_is_a_read_only_sequence(tmp_path):
    path = tmp_path / "data.csv"
    view = shuffled(load_csv(path, ratio_fixed_csv(path, 20)), 4)
    assert isinstance(view, Dataset)
    with pytest.raises(IndexError):
        view[20]
    with pytest.raises(TypeError):
        view[0] = view[1]
    assert view != list(view)[1:] and view != "not a dataset"


# ----------------------------------------------------- round-trip property

ROUND_TRIP = DatasetSchema(
    attributes=(AttributeSpec("x", "num"),
                AttributeSpec("colour", "cat", ("red", "green", "blue")),
                AttributeSpec("sex", "cat", ("F", "M")),
                AttributeSpec("y2", "num")),
    protected_attribute="sex", protected_value="F",
    label_name="y", label_values=("good", "bad"), positive_value="good")

FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROW = st.tuples(FINITE, st.sampled_from(("red", "green", "blue")),
                st.sampled_from(("F", "M")), FINITE,
                st.sampled_from((POSITIVE, NEGATIVE)))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(ROW, max_size=30))
def test_save_load_round_trip_property(tmp_path, rows):
    instances = [Instance((x, colour, sex, y2), sex == "F", label, seq)
                 for seq, (x, colour, sex, y2, label) in enumerate(rows, 1)]
    path = tmp_path / "round_trip.csv"
    save_csv(path, ROUND_TRIP, instances)
    assert load_csv(path, ROUND_TRIP) == instances


# ------------------------------------------------------- memory per row

def test_bytes_per_row_held_by_a_load_and_a_shuffle(tmp_path):
    """A loaded 7-column ratio_fixed export holds about 54 B per row (six
    doubles, a group code and a label byte; per-row Instances took about
    350) and a shuffled view about 4 (a row index; a list of new
    Instances took about 115). tracemalloc counts the same bytes on every
    run."""
    rows = 10_000
    path = tmp_path / "ratio_fixed.csv"
    schema = ratio_fixed_csv(path, rows)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stored = load_csv(path, schema)
        loaded = tracemalloc.get_traced_memory()[0]
        view = shuffled(stored, 1)
        viewed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(view) == rows
    assert (loaded - before) / rows <= 80
    assert (viewed - loaded) / rows <= 8
