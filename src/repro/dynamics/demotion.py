"""Lemma-5.5-style decay: retire dominators the coverage no longer needs.

Under sustained equal-intensity churn (crashes matched by joins) the
maintained set only ever *grows*: crashes remove dominators, but every
join and every adoption-based repair promotes, and nothing retires a
dominator whose clients are over-covered.  The paper's density argument
(Lemma 5.5: O(1) leaders per unit disk in expectation) only holds for a
fresh run — a long-lived maintained set drifts arbitrarily far above it.

:class:`SurplusDemotion` closes that loop with a conservative local
rule: a dominator ``v`` may retire iff

1. every client (non-member neighbor) of ``v`` keeps coverage at least
   ``k`` after losing ``v`` — i.e. each currently has surplus >= 1; and
2. ``v`` itself, as a fresh client, has at least ``k`` dominator
   neighbors.

Both checks read only 1-hop information every node already tracks from
leader announcements, so a retirement costs exactly one broadcast round
(:class:`~repro.dynamics.repair.LeaderAnnounceMsg` with
``leader=False`` to each neighbor).  Condition 1 guarantees no client
becomes deficient; condition 2 guarantees the retiree itself does not;
coverage never drops below ``k`` anywhere, so the maintenance loop's
post-epoch verification stays green.

The candidate scan is vectorized on the shared coverage plane
(:func:`repro.engine.kernels.demotion_candidates` — one scatter-min
over the live CSR); a greedy sequential pass in stable node order then
confirms each candidate against the counts as earlier retirements land,
which resolves the simultaneity hazard (two adjacent dominators both
"safe" alone, unsafe together) exactly the way a deterministic-priority
distributed rule would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set, TYPE_CHECKING

from repro.engine import kernels
from repro.engine.instrumentation import Instrumentation
from repro.errors import GraphError
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.dynamics.state import NetworkState


@dataclass
class DemotionOutcome:
    """What one decay pass retired and what it cost."""

    demoted: Set[NodeId] = field(default_factory=set)
    #: Nodes that participated (retirees and their 1-hop balls).
    touched: Set[NodeId] = field(default_factory=set)
    rounds: int = 0
    messages: int = 0


class SurplusDemotion:
    """The decay pass: demote every confirmably redundant dominator.

    Parameters
    ----------
    max_per_epoch:
        Optional cap on retirements per epoch (bounds the announcement
        traffic a single quiet epoch may generate).  ``None`` retires
        every confirmed candidate.
    """

    name = "surplus"

    def __init__(self, max_per_epoch: int | None = None):
        if max_per_epoch is not None and max_per_epoch < 1:
            raise GraphError(
                f"max_per_epoch must be at least 1, got {max_per_epoch}")
        self.max_per_epoch = max_per_epoch

    def demote(self, state: "NetworkState", k: int, *,
               instr: Instrumentation) -> DemotionOutcome:
        outcome = DemotionOutcome()
        if not state.members:
            return outcome
        art = state.artifacts()
        member_mask = kernels.member_mask(art, state.members)
        counts = kernels.member_counts(art, indicator=member_mask,
                                       convention="open")
        candidates = kernels.demotion_candidates(art, member_mask,
                                                 counts, k)
        if candidates.size == 0:
            return outcome

        indptr, indices = art.open_csr()
        demoted_idx = []
        for i in candidates.tolist():
            nbrs = indices[indptr[i]:indptr[i + 1]]
            # Confirm against the *current* counts: earlier retirements
            # in this pass may have consumed a neighbor's surplus or
            # turned a fellow dominator into a client.
            if counts[i] < k:
                continue
            clients = nbrs[~member_mask[nbrs]]
            if clients.size and int((counts[clients] - k).min()) < 1:
                continue
            member_mask[i] = False
            counts[nbrs] -= 1
            demoted_idx.append(i)
            outcome.touched.update(art.nodes[j] for j in nbrs)
            if (self.max_per_epoch is not None
                    and len(demoted_idx) >= self.max_per_epoch):
                break

        if not demoted_idx:
            return outcome
        outcome.demoted = {art.nodes[i] for i in demoted_idx}
        outcome.touched |= outcome.demoted
        # One announcement round: every retiree broadcasts its new
        # status to its (former) clients and fellow dominators.
        from repro.dynamics.repair import LeaderAnnounceMsg

        outcome.messages = int(sum(indptr[i + 1] - indptr[i]
                                   for i in demoted_idx))
        outcome.rounds = 1
        instr.charge_messages(outcome.messages,
                              LeaderAnnounceMsg(leader=False))
        instr.charge_rounds(1)
        return outcome
