"""Instance model, dataset schemas, CSV ingestion and deterministic shuffling.

Labels are +1 (positive class) / -1 (negative class); the protected-group
flag is a plain bool (True = protected). Feature vectors are tuples mixing
floats (numeric attributes) and strings (categorical attributes) in schema
order; the protected attribute is one of the categorical feature columns.
A loaded or shuffled dataset holds its attributes as columns (`Dataset`)
and builds each Instance as it is served.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, repeat
from typing import Iterable, NamedTuple

from .rng import permute

POSITIVE = 1
NEGATIVE = -1


class DataError(Exception):
    """Raised for malformed input files or schema violations."""


class Instance(NamedTuple):
    features: tuple
    group: bool  # True = protected group
    label: int   # +1 / -1
    seq: int     # arrival index, 1-based


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str  # "num" | "cat"
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("num", "cat"):
            raise DataError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if self.kind == "cat" and not self.categories:
            raise DataError(f"categorical attribute {self.name!r} needs an alphabet")


@dataclass(frozen=True)
class DatasetSchema:
    attributes: tuple[AttributeSpec, ...]
    protected_attribute: str
    protected_value: str
    label_name: str
    label_values: tuple[str, ...]
    positive_value: str

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names in schema")
        prot = next((a for a in self.attributes
                     if a.name == self.protected_attribute), None)
        if prot is None:
            raise DataError(f"protected attribute {self.protected_attribute!r} not declared")
        if prot.kind != "cat":
            raise DataError("protected attribute must be categorical")
        if self.protected_value not in prot.categories:
            raise DataError(
                f"protected value {self.protected_value!r} not in alphabet of "
                f"{self.protected_attribute!r}")
        if self.positive_value not in self.label_values:
            raise DataError(f"positive label {self.positive_value!r} not in label alphabet")
        if len(self.label_values) < 2:
            raise DataError("label alphabet needs at least two values")

    @property
    def protected_index(self) -> int:
        return [a.name for a in self.attributes].index(self.protected_attribute)

    def kinds(self) -> tuple[str, ...]:
        """Per-attribute kind tuple consumed by the tree learners."""
        return tuple(a.kind for a in self.attributes)

    def negative_value(self) -> str:
        for v in self.label_values:
            if v != self.positive_value:
                return v
        raise DataError("label alphabet has no negative value")


class Dataset(Sequence):
    """A read-only sequence of Instances held as columns, each Instance
    built as it is served. `columns` holds a (values, alphabet) pair per
    attribute: the values and None (an array('d') when loaded), or
    small-integer codes into the alphabet tuple, whose own str is served.
    An instance is protected when its code in `groups = (codes, code)` is
    `code`; `labels` holds +1/-1 (an array('b') when loaded); `rows` gives
    the stored row served at each position (a range, or an array('I')
    when shuffled); seq counts from 1.
    """

    def __init__(self, columns, groups, labels, rows):
        self.columns, self.groups, self.labels, self.rows = \
            columns, groups, labels, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):   # a list; seq keeps each one's position
            return [self[j] for j in range(len(self))[k]]
        i = self.rows[k]
        codes, code = self.groups
        return Instance(tuple([v[i] if a is None else a[v[i]]
                               for v, a in self.columns]),
                        codes[i] == code, self.labels[i], k % len(self) + 1)

    def __iter__(self):   # Sequence's own, through __getitem__, is 2x slower
        rows, (codes, code) = self.rows, self.groups
        feats = [map(v.__getitem__, rows) if a is None else
                 map(a.__getitem__, map(v.__getitem__, rows))
                 for v, a in self.columns]
        return map(tuple.__new__, repeat(Instance), zip(
            zip(*feats), map(code.__eq__, map(codes.__getitem__, rows)),
            map(self.labels.__getitem__, rows), count(1)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def load_csv(path, schema: DatasetSchema) -> Dataset:
    """Parse a UTF-8 CSV file (header row first, after any byte-order mark)
    against `schema` into its instances, in file order, held as a Dataset
    of columns: an Instance is built only when it is served.

    Rows are checked strictly: every schema column must be present, no
    header name may repeat, tokens in numeric columns must parse as finite
    floats (no nan or inf, and no literal that overflows to inf),
    categorical tokens must belong to the declared alphabet, and missing
    (empty) values are rejected, and so are bytes that are not UTF-8 and
    lines that csv cannot parse. Row numbers in error messages count data
    rows from 1.
    """
    from array import array   # a run without a CSV loads no array module
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

        # (column, spec, values, codes of a categorical alphabet's tokens)
        parsers = []
        for a in schema.attributes:
            if a.kind == "num":
                parsers.append((col[a.name], a, array("d"), None))
            else:
                values = array("B" if len(a.categories) <= 256 else "I")
                parsers.append((col[a.name], a, values, {
                    token: k for k, token in enumerate(a.categories)}))
        labels = array("b")
        label_at = col[schema.label_name]
        width = len(header)
        for rownum, raw in enumerate(reader, start=1):
            if len(raw) != width:
                raise DataError(f"{path}: wrong field count at row {rownum}")
            for at, a, values, codes in parsers:
                token = raw[at].strip()
                if token == "":
                    raise DataError(f"{path}: missing value at row {rownum}, column {a.name!r}")
                if codes is None:
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
                    values.append(value)
                elif token in codes:
                    values.append(codes[token])
                elif a.name == schema.protected_attribute:
                    raise DataError(f"{path}: unmapped protected value at row {rownum}")
                else:
                    raise DataError(
                        f"{path}: value {token!r} outside alphabet at row {rownum}, "
                        f"column {a.name!r}")
            label_token = raw[label_at].strip()
            if label_token not in schema.label_values:
                raise DataError(f"{path}: unmapped label value at row {rownum}")
            labels.append(POSITIVE if label_token == schema.positive_value
                          else NEGATIVE)
    _, _, prot_codes, codes = parsers[schema.protected_index]
    return Dataset([(values, None if codes is None else a.categories)
                    for _, a, values, codes in parsers],
                   (prot_codes, codes[schema.protected_value]), labels,
                   range(len(labels)))


def _rows(path, reader):
    """The rows of the csv `reader` of file `path`; a decoding or csv error
    is raised as a DataError that names its line."""
    try:
        yield from reader
    except UnicodeDecodeError:   # decode the file again, for the byte's offset
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as e:
            line = raw.count(b"\n", 0, e.start) + 1
            raise DataError(f"{path}: byte {raw[e.start:e.end].hex()} on line "
                            f"{line} is not UTF-8") from None
        raise
    except csv.Error as e:
        raise DataError(f"{path}: {e} at line {reader.line_num}") from None


def save_csv(path, schema: DatasetSchema, instances: Iterable[Instance]) -> None:
    """Write instances in the load_csv format (header + one row per instance).

    csv writes a float as its repr, which load_csv reads back exactly. A
    long export may be written by a second process (parallel.write_rows),
    with the same bytes.
    """
    from . import parallel   # parallel imports boosting, which imports data
    pos, neg = schema.positive_value, schema.negative_value()
    rows = ((*inst.features, pos if inst.label == POSITIVE else neg)
            for inst in instances)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in schema.attributes] + [schema.label_name])
        parallel.write_rows(fh, writer, rows)


def shuffled(instances: Sequence[Instance], seed: int) -> Dataset:
    """Deterministic shuffle of a dataset: Fisher-Yates over the pinned
    xorshift64* generator; seq is reassigned 1..n in the new order. The
    result is a Dataset over the same columns whose rows are an
    array('I'), so Instances are built as they are served."""
    if not instances:
        raise DataError("cannot shuffle an empty dataset")
    from array import array
    if not isinstance(instances, Dataset):
        feats, groups, labels, _ = zip(*instances)
        instances = Dataset([(c, None) for c in zip(*feats)], (groups, True),
                            labels, range(len(labels)))
    return Dataset(instances.columns, instances.groups, instances.labels,
                   permute(array("I", instances.rows), seed))
