"""Precision/recall/F-score metrics of predicted subsets.

Training scores errors by the weighted Hamming loss, which treats the two
error types asymmetrically:

    loss(y_star, y) = #(items of y not in y_star)
                      + omega * #(items of y_star missing from y).

omega > 1 makes missed ground-truth items costlier (training then favors
recall); omega < 1 penalizes spurious items relatively more (favoring
precision).  omega = 1 recovers the plain Hamming distance.  The trainer
only needs its expectation under the DPP, which has a closed form in the
marginal kernel diagonal (:func:`dpplearn.batch.margin_mass`).
"""

from typing import NamedTuple


class PrfScores(NamedTuple):
    precision: float
    recall: float
    fscore: float


def precision_recall_fscore(y_pred, y_star):
    """Precision, recall and F-score of a predicted subset.

    P = |pred & truth| / |pred|, R = |pred & truth| / |truth|,
    F = 2PR / (P + R).  Empty denominators: an empty prediction scores
    P = 1 against an empty truth and P = 0 otherwise (recall symmetric);
    F = 0 whenever P + R = 0.
    """
    pred, star = set(y_pred), set(y_star)
    hit = len(pred & star)
    precision = hit / len(pred) if pred else (1.0 if not star else 0.0)
    recall = hit / len(star) if star else (1.0 if not pred else 0.0)
    denom = precision + recall
    fscore = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return PrfScores(precision, recall, fscore)
