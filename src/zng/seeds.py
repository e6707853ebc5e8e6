"""Deterministic seed splitting.

A run is driven by a single master seed.  Every component that needs its own
random stream derives a sub-seed by hashing the master seed together with a
fixed role label, so adding or reordering components never perturbs the
streams of the others.  The rule is frozen:

    sub_seed = first 8 bytes (big endian) of
               sha256("zng-seed-v1" \\x1f master \\x1f label_1 \\x1f ...)

Labels are ints or strings rendered with str().  Streams themselves are
random.Random(sub_seed), the stdlib Mersenne Twister.

sha256 comes from CPython's builtin module (_sha2 from 3.12, _sha256
before), as random takes its sha512, because hashlib loads OpenSSL: a few
milliseconds of every construct and sweep start.  The version picks the
module, so no start pays a failed import first.  Other interpreters fall
back to hashlib; the digest is the same.
"""

import sys

try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256

_PREFIX = "zng-seed-v1"


def derive_seed(master: int, *labels: int | str) -> int:
    """Derive a 64-bit sub-seed from a master seed and a role label path."""
    parts = [_PREFIX, str(master), *[str(x) for x in labels]]
    digest = sha256("\x1f".join(parts).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")
