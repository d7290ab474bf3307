"""Token bucket primitive used by the ACE-N pacer.

The paper deliberately reuses the classic token-bucket filter (§4.1,
"we do not propose any new token bucket design"): tokens accrue at
``rate_bps`` up to ``bucket_bytes``; a packet may be sent when the
bucket holds at least its size in tokens. The *bucket size* is the knob
ACE-N adapts — a large bucket lets a whole frame burst out, a small one
degenerates to plain pacing.

Tokens here are denominated in bytes (1 token = 1 byte) so bucket sizes
compare directly with frame and queue sizes.
"""

from __future__ import annotations

#: Tolerance (bytes) absorbing float rounding in refill arithmetic, so a
#: bucket that is short by 1e-10 bytes does not stall the pacer on a
#: sub-representable wait time.
EPSILON_BYTES = 1e-6


class TokenBucket:
    """Byte-denominated token bucket with lazy refill.

    The refill arithmetic is inlined into :meth:`consume` and
    :meth:`time_until_available` (the per-packet hot path) — keep any
    change to the formula mirrored across all copies, bit-for-bit, or
    fixed-seed sessions stop being reproducible.
    """

    __slots__ = ("_rate_bps", "_bucket_bytes", "_tokens", "_last_refill")

    def __init__(self, rate_bps: float, bucket_bytes: float,
                 initial_fill: float | None = None, now: float = 0.0) -> None:
        if rate_bps <= 0:
            raise ValueError("token rate must be positive")
        if bucket_bytes <= 0:
            raise ValueError("bucket size must be positive")
        self._rate_bps = rate_bps
        self._bucket_bytes = bucket_bytes
        self._tokens = bucket_bytes if initial_fill is None else min(initial_fill, bucket_bytes)
        self._last_refill = now

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    @property
    def rate_bps(self) -> float:
        return self._rate_bps

    def set_rate(self, rate_bps: float, now: float) -> None:
        """Change the token rate (refills at the old rate up to ``now`` first).

        Rejects non-positive rates exactly like the constructor — a
        silent floor here would let a miscomputed rate masquerade as a
        (glacial) 1 bps pacer instead of failing loudly.
        """
        if rate_bps <= 0:
            raise ValueError("token rate must be positive")
        self._refill(now)
        self._rate_bps = rate_bps

    @property
    def bucket_bytes(self) -> float:
        return self._bucket_bytes

    def set_bucket_size(self, bucket_bytes: float, now: float) -> None:
        """Resize the bucket; excess tokens spill (never negative)."""
        self._refill(now)
        self._bucket_bytes = max(bucket_bytes, 1.0)
        self._tokens = min(self._tokens, self._bucket_bytes)

    # ------------------------------------------------------------------
    # token accounting
    # ------------------------------------------------------------------
    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self._bucket_bytes,
                               self._tokens + elapsed * self._rate_bps / 8.0)
        self._last_refill = max(self._last_refill, now)

    def tokens(self, now: float) -> float:
        """Current token count in bytes."""
        self._refill(now)
        return self._tokens

    def peek(self, now: float) -> float:
        """What :meth:`tokens` would return at ``now``, without refilling.

        A pure read for observers: it leaves the refill state untouched,
        so sampling it never shifts the float rounding of later refills.
        """
        elapsed = now - self._last_refill
        if elapsed > 0:
            return min(self._bucket_bytes,
                       self._tokens + elapsed * self._rate_bps / 8.0)
        return self._tokens

    @property
    def stored_tokens(self) -> float:
        """Token count as of the last refill (no accrual since, no clamp)."""
        return self._tokens

    def can_send(self, size_bytes: float, now: float) -> bool:
        elapsed = now - self._last_refill
        if elapsed > 0:
            filled = self._tokens + elapsed * self._rate_bps / 8.0
            cap = self._bucket_bytes
            self._tokens = cap if filled > cap else filled
            self._last_refill = now
        return self._tokens >= size_bytes - EPSILON_BYTES

    def consume(self, size_bytes: float, now: float) -> bool:
        """Take ``size_bytes`` tokens if available; returns success."""
        elapsed = now - self._last_refill
        if elapsed > 0:
            filled = self._tokens + elapsed * self._rate_bps / 8.0
            cap = self._bucket_bytes
            self._tokens = cap if filled > cap else filled
            self._last_refill = now
        if self._tokens < size_bytes - EPSILON_BYTES:
            return False
        left = self._tokens - size_bytes
        self._tokens = left if left > 0.0 else 0.0
        return True

    def time_until_available(self, size_bytes: float, now: float) -> float:
        """Seconds until the bucket will hold ``size_bytes`` tokens.

        Infinite demand beyond the bucket size is clamped: a packet larger
        than the bucket waits until the bucket is full (callers should
        size buckets above the MTU).
        """
        elapsed = now - self._last_refill
        if elapsed > 0:
            filled = self._tokens + elapsed * self._rate_bps / 8.0
            cap = self._bucket_bytes
            self._tokens = cap if filled > cap else filled
            self._last_refill = now
        demand = size_bytes if size_bytes < self._bucket_bytes else self._bucket_bytes
        needed = demand - self._tokens
        if needed <= EPSILON_BYTES:
            return 0.0
        return needed * 8.0 / self._rate_bps
