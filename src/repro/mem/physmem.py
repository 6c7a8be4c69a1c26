"""Sparse physical-memory content store.

Frames (4 KiB) are materialised lazily as 512-element unsigned-64-bit
``array('Q')`` buffers the first time they are written, so a simulated
8 GiB module only costs host memory proportional to the frames the
workload actually touches.  Unmaterialised frames read as zero.
(``array`` beats numpy here: single-word reads dominate and return
native ints without per-element conversion.)

All content addressing is word-granular (8-byte aligned) because every
structure the attack cares about — page-table entries, ``struct cred``
fields, spray markers — is a qword.  Bit flips address individual bits
within a byte, as the fault model produces them.
"""

from array import array

from repro.errors import MemoryError_
from repro.params import PAGE_SHIFT, PAGE_SIZE

_WORDS_PER_FRAME = PAGE_SIZE // 8
_WORD_MASK = 0xFFFFFFFFFFFFFFFF
_ZERO_FRAME = array("Q", [0]) * _WORDS_PER_FRAME


class PhysicalMemory:
    """Byte-addressed sparse physical memory of ``size_bytes``."""

    def __init__(self, size_bytes):
        if size_bytes <= 0 or size_bytes % PAGE_SIZE != 0:
            raise MemoryError_("size must be a positive multiple of the page size")
        self.size_bytes = size_bytes
        self.frame_count = size_bytes >> PAGE_SHIFT
        self._frames = {}

    def _check(self, paddr):
        if not 0 <= paddr < self.size_bytes:
            raise MemoryError_("physical address 0x%x out of range" % paddr)

    def frame_view(self, frame):
        """Materialise and return the 512-word array backing ``frame``.

        Mutating the returned array mutates memory; used by the kernel
        for bulk page-table writes.
        """
        if not 0 <= frame < self.frame_count:
            raise MemoryError_("frame %d out of range" % frame)
        words = self._frames.get(frame)
        if words is None:
            words = array("Q", _ZERO_FRAME)
            self._frames[frame] = words
        return words

    def frame_words(self, frame):
        """The 512-word array backing ``frame``, or None if unwritten.

        Unlike :meth:`frame_view` this never materialises: None reads
        as zero.  For read-only hot loops (the fast tier's bulk read)
        that index many words of one frame; callers pass in-range frame
        numbers, and must not mutate the array.
        """
        return self._frames.get(frame)

    def is_materialized(self, frame):
        """Whether ``frame`` has backing storage yet."""
        return frame in self._frames

    def materialized_frames(self):
        """Count of frames with backing storage (host-memory accounting)."""
        return len(self._frames)

    def read_word(self, paddr):
        """Read the aligned 8-byte word containing ``paddr``."""
        self._check(paddr)
        words = self._frames.get(paddr >> PAGE_SHIFT)
        if words is None:
            return 0
        return words[(paddr & (PAGE_SIZE - 1)) >> 3]

    def write_word(self, paddr, value):
        """Write the aligned 8-byte word containing ``paddr``."""
        self._check(paddr)
        words = self.frame_view(paddr >> PAGE_SHIFT)
        words[(paddr & (PAGE_SIZE - 1)) >> 3] = value & _WORD_MASK

    def read_bit(self, paddr, bit):
        """Read bit ``bit`` (0..7) of the byte at ``paddr``."""
        if not 0 <= bit < 8:
            raise MemoryError_("bit index %d out of range" % bit)
        word = self.read_word(paddr & ~7)
        return (word >> (((paddr & 7) << 3) + bit)) & 1

    def toggle_bit(self, paddr, bit):
        """Flip bit ``bit`` (0..7) of the byte at ``paddr``.

        This is the fault model's entry point; it materialises the frame
        because a flipped frame now has definite content.
        """
        if not 0 <= bit < 8:
            raise MemoryError_("bit index %d out of range" % bit)
        aligned = paddr & ~7
        word = self.read_word(aligned)
        self.write_word(aligned, word ^ (1 << (((paddr & 7) << 3) + bit)))

    def fill_frame(self, frame, word_value):
        """Set every word of ``frame`` to ``word_value`` (spray markers)."""
        if not 0 <= frame < self.frame_count:
            raise MemoryError_("frame %d out of range" % frame)
        self._frames[frame] = array("Q", [word_value & _WORD_MASK]) * _WORDS_PER_FRAME

    def zero_frame(self, frame):
        """Reset a frame to all zeroes (fresh page-table pages)."""
        if not 0 <= frame < self.frame_count:
            raise MemoryError_("frame %d out of range" % frame)
        self._frames[frame] = array("Q", _ZERO_FRAME)

    def copy_frame_words(self, frame):
        """Snapshot a frame's 512 words as a plain list (evaluation only)."""
        words = self._frames.get(frame)
        if words is None:
            return [0] * _WORDS_PER_FRAME
        return list(words)

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """Materialised frames as hex blobs (unmaterialised read zero).

        ``array('Q').tobytes().hex()`` keeps the dominant payload of a
        machine snapshot compact and fast to encode: one string per
        frame instead of 512 JSON integers.
        """
        return {
            "frames": {
                str(frame): words.tobytes().hex()
                for frame, words in self._frames.items()
            }
        }

    def load_state(self, state):
        """Replace all content with a :meth:`state_dict` capture."""
        frames = {}
        for frame, blob in state["frames"].items():
            words = array("Q")
            words.frombytes(bytes.fromhex(blob))
            frames[int(frame)] = words
        self._frames = frames
