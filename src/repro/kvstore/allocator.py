"""Per-request KV allocations over a shared :class:`BlockPool`.

The allocator owns the owner→blocks map the serving engine consults every
iteration: a request allocates blocks for its prompt at admission, grows by
one token per decode step (a new block only when it crosses a block
boundary), and releases everything on completion or preemption.

Swap is block-granular: :meth:`evict_blocks` stages an owner's coldest
prefix blocks to host memory (the owner stays *partially resident* — its
remaining blocks keep their device residency), and :meth:`readmit` brings
the staged blocks back all-or-nothing, so a failed readmission under pool
pressure never strands a half-granted allocation.

**Shared prefixes.**  :meth:`allocate` takes an optional prefix key: on a
cache hit the owner *attaches* to the resident
:class:`~repro.kvstore.block_pool.PrefixChain` instead of allocating the
prefix's blocks — it books only the suffix's private blocks, plus one
copy-on-write duplicate of the chain's partial tail block when the prefix
ends mid-block (the attacher appends divergent tokens there).  A miss
prefills privately and then *promotes* via :meth:`register_prefix`, which
transfers the owner's full prefix blocks into a new chain (at most one
extra block for the tail snapshot) so the next request with the same hash
attaches.  :meth:`release` with ``keep_prefix=True`` lets a preempted
owner keep its chain reference — a parked victim pins its prefix, so a hot
shared prefix is never reclaimed underneath a restore.  Unreferenced
chains stay cached until :meth:`evict_prefix` (the engine's joint eviction
ranking) or the internal coldest-first reclaim that backs admission and
readmission under pool pressure.  The per-owner invariant
``holds_blocks(owner) == pool.blocks_for(holds_tokens(owner))`` holds with
or without sharing — attached owners count their chain's full shared
blocks — which is what keeps the vectorized fast-forward's closed-form
block demand exact over shared allocations.

With a :class:`~repro.telemetry.ScopedRecorder` attached the allocator
emits ``kv.*`` events for its *bounded* operations — allocation grants,
releases, block-granular evictions and readmissions, plus the prefix
lifecycle (``kv.prefix_hit``, ``kv.cow``, ``kv.prefix_register``,
``kv.prefix_evict``) — stamped with the engine clock the owner mirrors
into ``recorder.now_s``.  Per-step growth (:meth:`grow` /
:meth:`grow_many`) is deliberately silent: those run once per decode token
(and once per fast-forwarded window), so recording them would both flood
the trace and break the stepped/fast-forward stream-equivalence
contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional

from repro.kvstore.block_pool import BlockPool, PrefixChain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.recorder import ScopedRecorder

__all__ = ["KvAllocator"]


class KvAllocator:
    """Tracks each owner's token count and block count against one pool."""

    def __init__(self, pool: BlockPool, *,
                 recorder: Optional["ScopedRecorder"] = None) -> None:
        self.pool = pool
        #: Optional telemetry sink (``repro.telemetry.ScopedRecorder``);
        #: ``None`` keeps every operation emission-free.
        self.recorder = recorder
        self._tokens: Dict[Hashable, int] = {}
        #: Private (unshared) device-resident blocks per owner.
        self._blocks: Dict[Hashable, int] = {}
        #: Blocks each owner currently has staged in host memory.
        self._swapped: Dict[Hashable, int] = {}
        #: Chain key each owner is attached to (holds one chain reference);
        #: survives a ``keep_prefix`` release so parked victims pin their
        #: prefix across preemption.
        self._shared: Dict[Hashable, Hashable] = {}

    # ------------------------------------------------------------------ queries

    def holds_tokens(self, owner: Hashable) -> int:
        return self._tokens.get(owner, 0)

    def holds_blocks(self, owner: Hashable) -> int:
        """Blocks the owner's allocation logically covers (private resident
        + host-staged + full blocks read from its shared prefix chain)."""
        blocks = self._blocks.get(owner, 0) + self._swapped.get(owner, 0)
        key = self._shared.get(owner)
        if key is not None:
            chain = self.pool.prefix_chains[key]
            blocks += chain.tokens // self.pool.block_tokens
        return blocks

    def holds_resident_blocks(self, owner: Hashable) -> int:
        """Blocks the owner currently has on device."""
        return self._blocks.get(owner, 0)

    def holds_swapped_blocks(self, owner: Hashable) -> int:
        """Blocks the owner currently has staged in host memory."""
        return self._swapped.get(owner, 0)

    def shared_key(self, owner: Hashable) -> Optional[Hashable]:
        """Chain key the owner is attached to, or None."""
        return self._shared.get(owner)

    def shared_blocks(self, owner: Hashable) -> int:
        """Full blocks the owner reads from its shared prefix chain."""
        key = self._shared.get(owner)
        if key is None:
            return 0
        return self.pool.prefix_chains[key].tokens // self.pool.block_tokens

    def shared_tokens(self, owner: Hashable) -> int:
        """Tokens of the owner's context resident in shared chain blocks.

        Only whole shared blocks count — a prefix's partial tail block is
        copy-on-write private, so its tokens swap and recompute with the
        owner's own KV.
        """
        return self.shared_blocks(owner) * self.pool.block_tokens

    @property
    def num_owners(self) -> int:
        return len(self._tokens)

    @property
    def allocated_bytes(self) -> int:
        return self.pool.allocated_bytes

    # ------------------------------------------------------------------ lifecycle

    def allocate(self, owner: Hashable, tokens: int, *,
                 prefix: Optional[Hashable] = None,
                 now_s: float = 0.0) -> bool:
        """Allocation covering ``tokens``; False if the pool is short.

        With ``prefix`` set and a matching chain resident, the owner
        attaches: it takes only ``blocks_for(tokens)`` minus the chain's
        full shared blocks from the pool (the difference includes the
        copy-on-write duplicate of a partial chain tail).  A parked owner
        that kept its chain reference across preemption re-attaches to the
        same chain regardless of ``prefix``.  Pool shortage first reclaims
        unreferenced chains coldest-first; failure after that is
        side-effect free on the owner, so admission can probe and retry.
        """
        if owner in self._tokens:
            raise ValueError(f"owner {owner!r} already holds an allocation")
        if tokens < 0:
            raise ValueError(f"token count must be non-negative, got {tokens}")
        blocks = self.pool.blocks_for(tokens)
        recorder = self.recorder
        pinned = self._shared.get(owner)
        if pinned is not None:
            # Resuming a preempted owner whose chain reference survived.
            chain = self.pool.prefix_chains[pinned]
            private = blocks - chain.tokens // self.pool.block_tokens
            if not self._pool_allocate(private, exclude=pinned):
                return False
            chain.last_use_s = now_s
            self._tokens[owner] = tokens
            self._blocks[owner] = private
            if recorder is not None:
                recorder.event("kv.alloc", recorder.now_s, owner,
                               tokens=tokens, blocks=private,
                               free_blocks=self.pool.free_blocks)
            return True
        chain = self.pool.prefix_get(prefix) if prefix is not None else None
        if chain is not None:
            if tokens < chain.tokens:
                raise ValueError(
                    f"owner {owner!r} asked for {tokens} tokens, fewer than "
                    f"its {chain.tokens}-token prefix chain"
                )
            shared = chain.tokens // self.pool.block_tokens
            private = blocks - shared
            if not self._pool_allocate(private, exclude=prefix):
                return False
            self.pool.prefix_attach(prefix, now_s)
            self._shared[owner] = prefix
            self._tokens[owner] = tokens
            self._blocks[owner] = private
            if recorder is not None:
                cow = 1 if chain.tokens % self.pool.block_tokens else 0
                recorder.event("kv.prefix_hit", recorder.now_s, owner,
                               prefix_tokens=chain.tokens,
                               shared_blocks=shared, private_blocks=private,
                               cow_blocks=cow,
                               free_blocks=self.pool.free_blocks)
                if cow:
                    recorder.event("kv.cow", recorder.now_s, owner,
                                   blocks=cow, prefix_tokens=chain.tokens)
            return True
        if not self._pool_allocate(blocks, exclude=prefix):
            return False
        self._tokens[owner] = tokens
        self._blocks[owner] = blocks
        if recorder is not None:
            recorder.event("kv.alloc", recorder.now_s, owner,
                           tokens=tokens, blocks=blocks,
                           free_blocks=self.pool.free_blocks)
        return True

    def grow(self, owner: Hashable, tokens: int) -> bool:
        """Extend ``owner``'s allocation to cover ``tokens`` in total.

        Allocates a new block only when the target crosses a block
        boundary; False (side-effect free) when the pool cannot supply it —
        the caller preempts a victim and retries.
        """
        held = self._tokens.get(owner)
        if held is None:
            raise ValueError(f"owner {owner!r} holds no allocation to grow")
        if tokens < held:
            raise ValueError(
                f"allocations only grow ({owner!r} holds {held} tokens, "
                f"asked for {tokens}); release and re-allocate to shrink"
            )
        needed = self.pool.blocks_for(tokens) - self.holds_blocks(owner)
        if needed > 0 and not self.pool.allocate(needed):
            return False
        self._tokens[owner] = tokens
        self._blocks[owner] += max(needed, 0)
        return True

    def grow_many(self, owners, targets, needs) -> bool:
        """Batch :meth:`grow`: extend every owner in one pool transaction.

        ``needs[i]`` is the number of *new* blocks owner ``i`` must acquire
        to cover ``targets[i]`` tokens; the caller has already derived it
        from the owners' resident block counts (the serving engine's
        fast-forward window computes all three arrays vectorized).
        All-or-nothing: False (side-effect free) when the pool cannot
        supply the total.
        """
        total = 0
        for need in needs:
            if need > 0:
                total += need
        if total and not self.pool.allocate(total):
            return False
        tokens_map = self._tokens
        blocks_map = self._blocks
        for owner, tokens, need in zip(owners, targets, needs, strict=True):
            tokens_map[owner] = tokens
            if need > 0:
                blocks_map[owner] += need
        return True

    def release(self, owner: Hashable, *, keep_prefix: bool = False,
                now_s: float = 0.0) -> int:
        """Free ``owner``'s blocks; returns the token count it covered.

        Host-staged blocks (block-granular swap) are dropped with the
        device-resident ones.  An attached owner normally detaches from its
        chain too (the chain stays cached at refcount zero once its last
        reader leaves); ``keep_prefix=True`` — the preemption path — keeps
        the chain reference alive so the parked owner's prefix cannot be
        reclaimed before it resumes.
        """
        tokens = self._tokens.pop(owner, 0)
        blocks = self._blocks.pop(owner, 0)
        if blocks:
            self.pool.release(blocks)
        swapped = self._swapped.pop(owner, 0)
        if swapped:
            self.pool.drop_swapped(swapped)
        if not keep_prefix:
            key = self._shared.pop(owner, None)
            if key is not None:
                self.pool.prefix_detach(key, now_s)
        recorder = self.recorder
        if recorder is not None and (blocks or swapped):
            recorder.event("kv.release", recorder.now_s, owner,
                           tokens=tokens, blocks=blocks,
                           dropped_staged=swapped,
                           free_blocks=self.pool.free_blocks)
        return tokens

    # ------------------------------------------------------------------ prefix chains

    def register_prefix(self, key: Hashable, tokens: int, owner: Hashable,
                        *, now_s: float = 0.0) -> bool:
        """Promote ``owner``'s freshly-prefilled prefix into a shared chain.

        The owner's first ``tokens // block_tokens`` private blocks hold
        pure prefix KV; they transfer to a new chain under ``key`` and the
        owner attaches to it (so the promoter pins its own prefix).  A
        prefix ending mid-block additionally snapshots the boundary block
        — one extra pool block — so later attachers have a clean tail to
        copy-on-write from.  False (side-effect free) when ``key`` is
        already chained, the owner is already attached, or the pool cannot
        supply the tail snapshot.
        """
        if tokens <= 0:
            raise ValueError(f"prefix tokens must be positive, got {tokens}")
        if owner not in self._tokens:
            raise ValueError(f"owner {owner!r} holds no allocation to promote")
        if tokens > self._tokens[owner]:
            raise ValueError(
                f"owner {owner!r} holds {self._tokens[owner]} tokens, cannot "
                f"promote a {tokens}-token prefix"
            )
        if owner in self._shared or key in self.pool.prefix_chains:
            return False
        block_tokens = self.pool.block_tokens
        shared = tokens // block_tokens
        tail = 1 if tokens % block_tokens else 0
        if self._blocks.get(owner, 0) < shared:
            # Part of the prefix is host-staged (partial swap); promoting
            # would share blocks that are not on device. Skip.
            return False
        if tail and not self.pool.allocate(tail):
            return False
        chain = self.pool.prefix_adopt(key, tokens, shared + tail, now_s)
        chain.refcount = 1
        self._blocks[owner] -= shared
        self._shared[owner] = key
        recorder = self.recorder
        if recorder is not None:
            recorder.event("kv.prefix_register", recorder.now_s, owner,
                           prefix=str(key), tokens=tokens,
                           shared_blocks=shared, tail_blocks=tail,
                           free_blocks=self.pool.free_blocks)
        return True

    def evictable_prefixes(self) -> List[PrefixChain]:
        """Unreferenced chains, coldest first (deterministic)."""
        return self.pool.evictable_prefixes()

    def evict_prefix(self, key: Hashable) -> int:
        """Reclaim an unreferenced chain; returns the blocks freed."""
        chain = self.pool.prefix_chains[key]
        blocks = self.pool.prefix_evict(key)
        recorder = self.recorder
        if recorder is not None:
            recorder.event("kv.prefix_evict", recorder.now_s, None,
                           prefix=str(key), tokens=chain.tokens,
                           blocks=blocks,
                           free_blocks=self.pool.free_blocks)
        return blocks

    def _pool_allocate(self, blocks: int, exclude: Optional[Hashable]) -> bool:
        """Pool grab that reclaims cold unreferenced chains on shortage."""
        if self.pool.allocate(blocks):
            return True
        shortfall = blocks - self.pool.free_blocks
        for chain in self.pool.evictable_prefixes():
            if shortfall <= 0:
                break
            if chain.key == exclude:
                continue
            shortfall -= self.evict_prefix(chain.key)
        return self.pool.allocate(blocks)

    # ------------------------------------------------------------------ swap

    def evict_blocks(self, owner: Hashable, num_blocks: int) -> int:
        """Stage up to ``num_blocks`` of ``owner``'s coldest prefix blocks
        to host memory, freeing their device blocks for other requests.

        Returns the number actually staged (bounded by the owner's resident
        count); the owner keeps the rest of its allocation on device and
        must :meth:`readmit` before its KV is whole again.
        """
        if owner not in self._tokens:
            raise ValueError(f"owner {owner!r} holds no allocation to evict from")
        if num_blocks <= 0:
            raise ValueError(f"block count must be positive, got {num_blocks}")
        staged = min(num_blocks, self._blocks[owner])
        if staged:
            self.pool.swap_out(staged)
            self._blocks[owner] -= staged
            self._swapped[owner] = self._swapped.get(owner, 0) + staged
            recorder = self.recorder
            if recorder is not None:
                recorder.event("kv.evict", recorder.now_s, owner,
                               staged_blocks=staged,
                               resident_blocks=self._blocks[owner],
                               free_blocks=self.pool.free_blocks)
        return staged

    def readmit(self, owner: Hashable) -> bool:
        """Bring ``owner``'s host-staged blocks back on device.

        All-or-nothing: False (side-effect free) when the pool cannot hold
        every staged block, so a failed readmission under pressure never
        leaves the owner with a partially-granted restore.
        """
        if owner not in self._tokens:
            raise ValueError(f"owner {owner!r} holds no allocation to readmit")
        staged = self._swapped.get(owner, 0)
        if staged == 0:
            return True
        if not self.pool.swap_in(staged):
            shortfall = staged - self.pool.free_blocks
            for chain in self.pool.evictable_prefixes():
                if shortfall <= 0:
                    break
                shortfall -= self.evict_prefix(chain.key)
            if not self.pool.swap_in(staged):
                return False
        self._blocks[owner] += staged
        del self._swapped[owner]
        recorder = self.recorder
        if recorder is not None:
            recorder.event("kv.readmit", recorder.now_s, owner,
                           blocks=staged,
                           free_blocks=self.pool.free_blocks)
        return True
