"""Incremental, weight-aware decision tree with blind drift adaptation.

Leaves accumulate weighted per-class statistics (Gaussian estimators for
numeric attributes, value tallies for categorical ones) and are split once
the information-gain margin over the runner-up attribute clears the
Hoeffding bound sqrt(ln(1/delta) / (2 * weight)) for binary entropy, or the
bound itself drops under the tie threshold. Numeric splits are binary on a
threshold chosen among quantile points of the pooled per-class Gaussian;
categorical splits are multi-way on the observed alphabet.

Drift handling is blind: every node tracks an exponentially decayed error
of its subtree. When that error climbs more than a few sigma above the best
level seen (Bernoulli std of the decayed mean), a fresh alternate subtree
starts growing beside the node; once the alternate has absorbed enough
weight and beats the incumbent by a clear margin it replaces the subtree
in place. Stationary data leaves the structure untouched. The warning
threshold depends on the best level alone, so each node caches it in
`warn_at` when that level drops (inf before warm-up). `train_weighted`
returns the margin on the trained instance after the update, so a
boosting pass walks each tree once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .data import DataError, POSITIVE

_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class TreeParams:
    split_confidence: float = 1e-7   # delta of the Hoeffding bound
    grace_weight: float = 200.0      # weight between split attempts at a leaf
    tie_threshold: float = 0.05
    split_candidates: int = 10       # numeric candidate thresholds per attribute
    adaptive: bool = True
    drift_decay: float = 0.995
    warn_sigmas: float = 3.0
    replace_margin: float = 0.01     # decayed-error advantage needed to promote
    alt_min_weight: float = 300.0    # evaluation weight before promotion/discard
    alt_discard_weight: float = 5000.0  # give up on an undecided alternate
    drift_warmup: float = 200.0      # weight before a node may raise warnings

    def __post_init__(self):
        if not 0.0 < self.split_confidence < 1.0:
            raise ValueError("split_confidence must be in (0, 1)")
        for name in ("grace_weight", "tie_threshold", "split_candidates",
                     "alt_min_weight", "drift_warmup"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class _Node:
    __slots__ = ("split_attr", "threshold", "children", "cat_children",
                 "wp", "wn", "num_stats", "cat_stats", "weight_since",
                 "err", "err_min", "warn_at", "warm", "seen_w", "alt")

    def __init__(self, n_numeric: int, n_categorical: int):
        self.split_attr = None
        self.threshold = None
        self.children = None
        self.cat_children = None
        self.wp = 0.0
        self.wn = 0.0
        # [means+, M2+, means-, M2-], each a list over the numeric attrs;
        # the class weights are wp and wn, which every attribute shares
        self.num_stats = [[0.0] * n_numeric for _ in range(4)]
        # per categorical attr: value -> [w+, w-]
        self.cat_stats = [dict() for _ in range(n_categorical)]
        self.weight_since = 0.0
        self.err = 0.0
        self.err_min = math.inf
        self.warn_at = math.inf  # warning threshold implied by err_min
        self.warm = 1.0   # decay**seen_weight, for bias correction
        self.seen_w = 0.0
        self.alt = None


def _entropy2(a: float, b: float) -> float:
    """Binary entropy (bits) of a two-class weight pair."""
    if a <= 0.0 or b <= 0.0:
        return 0.0
    w = a + b
    pa = a / w
    pb = b / w
    return -(pa * math.log(pa) + pb * math.log(pb)) / _LOG2


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


class HoeffdingTree:
    """Weight-aware streaming decision tree over a fixed attribute schema.

    `kinds` gives the per-position attribute kind ("num" or "cat") of the
    feature vectors this tree will see.
    """

    def __init__(self, kinds, params: TreeParams | None = None):
        self.params = params or TreeParams()
        self.kinds = tuple(kinds)
        self.numeric_idx = tuple(i for i, k in enumerate(self.kinds) if k == "num")
        self._numeric_pos = tuple(enumerate(self.numeric_idx))
        self.cat_idx = tuple(i for i, k in enumerate(self.kinds) if k == "cat")
        if len(self.numeric_idx) + len(self.cat_idx) != len(self.kinds):
            raise DataError("attribute kinds must be 'num' or 'cat'")
        self.root = self._new_leaf()
        self.replacements = 0
        p = self.params
        nd = NormalDist()
        k = p.split_candidates
        self._quantile_z = tuple(nd.inv_cdf((i + 1) / (k + 1)) for i in range(k))
        self._ln_inv_delta = math.log(1.0 / p.split_confidence)
        self._adaptive = p.adaptive
        self._warmup = p.drift_warmup
        self._decay = p.drift_decay
        # kept apart, not as their ratio, which rounds differently
        self._one_minus_d = 1.0 - p.drift_decay
        self._one_plus_d = 1.0 + p.drift_decay
        self._warn_sigmas = p.warn_sigmas
        self._grace = p.grace_weight
        self._alt_min = p.alt_min_weight

    def _new_leaf(self) -> _Node:
        return _Node(len(self.numeric_idx), len(self.cat_idx))

    # ------------------------------------------------------------------ train

    def train_weighted(self, x, label: int, weight: float) -> float:
        """Learn (x, label) with `weight`; returns predict_margin(x) after
        the update: the trained leaf's margin, or a fresh walk when that
        leaf split or an alternate replaced a node on its path."""
        if weight < 0.0:
            raise ValueError("weight must be >= 0")
        if len(x) != len(self.kinds):
            raise DataError(f"expected {len(self.kinds)} attributes, got {len(x)}")
        if weight == 0.0:
            return self.predict_margin(x)
        aw = self._decay ** weight if self._adaptive else 1.0
        leaf = self._train_subtree(self.root, x, label == POSITIVE, weight,
                                   aw, allow_alts=self._adaptive)
        if leaf is None or leaf.split_attr is not None:
            return self.predict_margin(x)
        return (leaf.wp - leaf.wn) / (leaf.wp + leaf.wn + 2.0)

    def _train_subtree(self, node, x, pos, w, aw, allow_alts):
        """Learn x, positive when `pos`, at its leaf under `node`; returns
        that leaf, or None when an alternate replaced a node on the path."""
        n = node
        path = (n,) if n.split_attr is None else [n]
        while n.split_attr is not None:
            v = x[n.split_attr]
            if n.threshold is not None:
                n = n.children[0] if v <= n.threshold else n.children[1]
            else:
                child = n.cat_children.get(v)
                if child is None:
                    child = self._new_leaf()
                    n.cat_children[v] = child
                n = child
            path.append(n)
        leaf = n

        if self._adaptive:
            # alternates share no node with this tree: they may train first
            correct = (leaf.wp >= leaf.wn) == pos
            inc = 0.0 if correct else 1.0 - aw
            warmup = self._warmup
            for nd in path:
                nd.err = err = aw * nd.err + inc
                nd.warm *= aw
                nd.seen_w += w
                if nd.seen_w >= warmup and err < nd.err_min:
                    nd.err_min = err
                    nd.warn_at = err + self._warn_sigmas * math.sqrt(
                        max(err * (1.0 - err), 0.0025) * self._one_minus_d
                        / self._one_plus_d)
                if not allow_alts:
                    continue
                alt = nd.alt
                if alt is None:
                    if err > nd.warn_at:
                        nd.alt = self._new_leaf()
                elif err <= nd.warn_at:
                    # the anomaly that spawned the alternate has subsided
                    nd.alt = None
                else:
                    self._train_subtree(alt, x, pos, w, aw, allow_alts=False)
                    if alt.seen_w >= self._alt_min and self._resolve_alternate(nd):
                        return None  # the rest of the path, leaf included, is gone

        # leaf statistics
        stats = leaf.num_stats
        if pos:
            leaf.wp += w
            r = w / leaf.wp
            means, m2 = stats[0], stats[1]
        else:
            leaf.wn += w
            r = w / leaf.wn
            means, m2 = stats[2], stats[3]
        for j, i in self._numeric_pos:
            xv = x[i]
            mean = means[j]
            delta = xv - mean
            mean += r * delta
            means[j] = mean
            m2[j] += w * delta * (xv - mean)
        for d, i in zip(leaf.cat_stats, self.cat_idx):
            v = x[i]
            cell = d.get(v)
            if cell is None:
                d[v] = [w, 0.0] if pos else [0.0, w]
            else:
                cell[0 if pos else 1] += w

        leaf.weight_since += w
        if leaf.weight_since >= self._grace:
            leaf.weight_since = 0.0
            self._attempt_split(leaf)

        return leaf

    # ---------------------------------------------------------------- splits

    def _attempt_split(self, leaf) -> None:
        wp, wn = leaf.wp, leaf.wn
        if wp <= 0.0 or wn <= 0.0:
            return
        total = wp + wn
        h0 = _entropy2(wp, wn)
        # (gain, attribute, threshold if numeric, value tallies if
        # categorical) of each attribute, the numeric ones first
        candidates = []
        for st, i in zip(zip(*leaf.num_stats), self.numeric_idx):
            g, thr = self._best_numeric_split(st, wp, wn, total, h0)
            candidates.append((g, i, thr, None))
        for d, i in zip(leaf.cat_stats, self.cat_idx):
            candidates.append((self._categorical_gain(d, total, h0), i, None, d))
        best = None
        best_gain = second_gain = 0.0
        for candidate in candidates:
            if candidate[0] > best_gain:
                second_gain = best_gain
                best_gain = candidate[0]
                best = candidate
            elif candidate[0] > second_gain:
                second_gain = candidate[0]

        if best_gain <= 1e-12:   # best is None when no gain is positive
            return
        bound = math.sqrt(self._ln_inv_delta / (2.0 * total))
        if best_gain - second_gain > bound or bound < self.params.tie_threshold:
            _, leaf.split_attr, threshold, cats = best
            if cats is None:
                leaf.threshold = threshold
                leaf.children = [self._new_leaf(), self._new_leaf()]
            else:
                leaf.threshold = None
                leaf.cat_children = {v: self._new_leaf() for v in cats}
            leaf.num_stats = None
            leaf.cat_stats = None

    def _best_numeric_split(self, st, wp, wn, total, h0):
        mp, m2p, mn, m2n = st
        mean = (wp * mp + wn * mn) / total
        ex2 = (wp * (m2p / wp + mp * mp) if wp > 0.0 else 0.0) + \
              (wn * (m2n / wn + mn * mn) if wn > 0.0 else 0.0)
        var = ex2 / total - mean * mean
        if var <= 0.0:
            return 0.0, 0.0
        sd = math.sqrt(var)
        sdp = math.sqrt(m2p / wp) if wp > 0.0 else 0.0
        sdn = math.sqrt(m2n / wn) if wn > 0.0 else 0.0
        best_gain = 0.0
        best_thr = 0.0
        for z in self._quantile_z:
            thr = mean + sd * z
            if sdp > 0.0:
                lp = wp * _norm_cdf((thr - mp) / sdp)
            else:
                lp = wp if mp <= thr else 0.0
            if sdn > 0.0:
                ln = wn * _norm_cdf((thr - mn) / sdn)
            else:
                ln = wn if mn <= thr else 0.0
            left = lp + ln
            right = total - left
            if left <= 0.0 or right <= 0.0:
                continue
            gain = h0 - (left / total) * _entropy2(lp, ln) \
                      - (right / total) * _entropy2(wp - lp, wn - ln)
            if gain > best_gain:
                best_gain, best_thr = gain, thr
        return best_gain, best_thr

    @staticmethod
    def _categorical_gain(d, total, h0):
        if len(d) < 2:
            return 0.0
        rem = 0.0
        for cp, cn in d.values():
            rem += ((cp + cn) / total) * _entropy2(cp, cn)
        return h0 - rem

    # ----------------------------------------------------------------- drift

    def _resolve_alternate(self, nd) -> bool:
        """Promote or discard the alternate of `nd`, still under warning
        and past alt_min_weight; True when it replaced the subtree."""
        alt = nd.alt
        # bias-corrected decayed errors
        denom = 1.0 - nd.warm
        main_err = nd.err / denom if denom > 1e-9 else 0.0
        denom = 1.0 - alt.warm
        alt_err = alt.err / denom if denom > 1e-9 else 0.0
        margin = self.params.replace_margin
        # the promotion bar below is at least `margin`, and
        # alt_err - main_err == -(main_err - alt_err) exactly: inside the
        # margin an alternate short of alt_discard_weight stays undecided
        if -margin < main_err - alt_err < margin \
                and alt.seen_w < self.params.alt_discard_weight:
            return False
        # the advantage must clear both the flat margin and the combined
        # noise of the two decayed estimates (the challenger's is young)
        unit = self._one_minus_d / self._one_plus_d
        var = (max(main_err * (1.0 - main_err), 0.0025)
               + max(alt_err * (1.0 - alt_err), 0.0025)) * unit
        needed = max(margin, self.params.warn_sigmas * math.sqrt(var))
        if main_err - alt_err >= needed:
            # promote: the alternate's content takes the node's place, with
            # no best error level seen yet; alternates train without
            # alternates of their own, so nd.alt becomes None
            for slot in _Node.__slots__:
                setattr(nd, slot, getattr(alt, slot))
            nd.err_min = nd.warn_at = math.inf
            self.replacements += 1
            return True
        if alt_err - main_err >= margin \
                or alt.seen_w >= self.params.alt_discard_weight:
            nd.alt = None
        return False

    # --------------------------------------------------------------- predict

    def predict_margin(self, x) -> float:
        """2 * P(positive | leaf) - 1, Laplace-smoothed; empty leaves give 0."""
        n = self.root
        while n.split_attr is not None:
            v = x[n.split_attr]
            if n.threshold is not None:
                n = n.children[0] if v <= n.threshold else n.children[1]
            else:
                n = n.cat_children.get(v)
                if n is None:
                    return 0.0
        return (n.wp - n.wn) / (n.wp + n.wn + 2.0)

    # ----------------------------------------------------------------- debug

    def describe(self) -> str:
        """Indented structure dump, for debugging and golden comparisons."""
        lines = []

        def walk(n, depth, tag):
            pad = "  " * depth
            if n.split_attr is None:
                lines.append(f"{pad}{tag}leaf +:{n.wp:.6g} -:{n.wn:.6g}")
            elif n.threshold is not None:
                lines.append(f"{pad}{tag}x{n.split_attr} <= {n.threshold:.6g}")
                walk(n.children[0], depth + 1, "L ")
                walk(n.children[1], depth + 1, "R ")
            else:
                lines.append(f"{pad}{tag}x{n.split_attr} multiway")
                for v in sorted(n.cat_children):
                    walk(n.cat_children[v], depth + 1, f"{v}: ")

        walk(self.root, 0, "")
        return "\n".join(lines)
