"""Thread similarity classes for triage.

BLOCKWATCH's static analysis groups *branches* by similarity category;
triage needs the dual grouping of *threads*: which threads execute the
same code and are therefore comparable, both for mapping a witness's
thread id to a stable class rank and for the performance-anomaly arm's
within-class centroid comparison.

The campaign's golden run records the grouping's input
(:class:`repro.runtime.golden.GoldenRecorder`): each thread's branch
stream, one symbol per dynamic branch for the ``(function, block)`` it
ends and its decision.  Threads whose streams are equal form one class;
the same streams plan stratified campaigns, so no second fault-free run
observes the schedule.  Every :class:`~repro.faults.CampaignResult` carries those classes —
through the store's golden summaries and served results too — so
triage only reads them.

Classes are canonicalized as sorted thread-id lists ordered by their
least member, so the rank of a class — the number witnesses carry in
place of raw thread ids — is independent of dict ordering, process
boundaries, and ``jobs=N``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def observe_thread_classes(result) -> List[List[int]]:
    """The thread similarity classes the campaign's golden run recorded
    (a reader: nothing runs)."""
    classes = [list(cls) for cls in result.thread_classes]
    if not classes:
        raise ValueError("campaign result carries no thread classes; "
                         "it was not produced by run_campaign")
    return classes


def class_ranks(classes: Sequence[Sequence[int]]) -> Dict[int, int]:
    """``tid -> class rank`` over canonicalized classes."""
    return {tid: rank
            for rank, tids in enumerate(classes)
            for tid in tids}
