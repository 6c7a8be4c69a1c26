"""Offline LLC eviction-rate measurement (Figure 4, minimal set size).

"We extend the aforementioned kernel module to count the event of LLC
misses (longest_lat_cache.miss) and have a similar algorithm to
Algorithm 1 to decide the minimal size for an LLC eviction set"
(Section III-D).  Ground-truth physical congruence comes from the
Inspector — legitimate here because the paper runs this phase offline
on a machine the attacker controls.
"""

from repro.params import LINE_SIZE, PAGE_SIZE


def physically_congruent_lines(attacker, inspector, target_va, count, max_pages=None):
    """``count`` buffer lines in the same (LLC set, slice) as ``target_va``.

    Allocates pages and checks each candidate line's ground-truth
    placement until enough congruent lines are found.
    """
    target_frame = inspector.frame_of(attacker.process, target_va)
    target_paddr = (target_frame << 12) | (target_va & (PAGE_SIZE - 1))
    wanted = inspector.llc_set_and_slice(target_paddr)
    line_offset = (target_va & (PAGE_SIZE - 1)) >> 6
    found = []
    pages_tried = 0
    limit = max_pages if max_pages is not None else 64 * count
    while len(found) < count and pages_tried < limit:
        batch = min(64, limit - pages_tried)
        base = attacker.mmap(batch, populate=True)
        for page in range(batch):
            va = base + page * PAGE_SIZE + line_offset * LINE_SIZE
            frame = inspector.frame_of(attacker.process, va)
            paddr = (frame << 12) | (va & (PAGE_SIZE - 1))
            if inspector.llc_set_and_slice(paddr) == wanted:
                found.append(va)
                if len(found) == count:
                    break
        pages_tried += batch
    if len(found) < count:
        raise RuntimeError(
            "only found %d/%d congruent lines in %d pages"
            % (len(found), count, pages_tried)
        )
    return found


def profile_llc_miss_rate(attacker, inspector, target_va, lines, trials=40):
    """Fraction of trials where sweeping ``lines`` evicts the target line.

    PMC-based (longest_lat_cache.miss), like the extended kernel
    module: prime the target, sweep, re-access, and check whether the
    re-access missed the LLC.
    """
    misses = 0
    attacker.touch(target_va)
    for _ in range(trials):
        attacker.touch_many(lines)
        before = inspector.perf_snapshot()
        attacker.touch(target_va)
        if inspector.llc_miss_delta(before) > 0:
            misses += 1
    return misses / trials


def llc_miss_rate_by_size(attacker, inspector, facts, sizes, trials=40, target_va=None):
    """Figure 4 series: LLC miss rate per eviction-set size.

    Builds one maximal physically-congruent line set and measures
    nested prefixes, mirroring how the paper trims one set.
    """
    if target_va is None:
        target_va = attacker.mmap(1, populate=True)
    top = max(sizes)
    lines = physically_congruent_lines(attacker, inspector, target_va, top)
    rates = {}
    for size in sorted(sizes):
        inspector.quiesce_caches()
        rates[size] = profile_llc_miss_rate(
            attacker, inspector, target_va, lines[:size], trials
        )
    return rates


def find_minimal_llc_eviction_size(
    attacker, inspector, facts, trials=40, tolerance=0.08, target_va=None
):
    """The smallest line count that still reliably evicts (offline).

    Starts from twice the associativity (24/32 lines), trims while the
    measured rate stays within tolerance of the full-set rate — the
    paper lands on associativity + 1.
    """
    if target_va is None:
        target_va = attacker.mmap(1, populate=True)
    size = 2 * facts.llc_ways
    lines = physically_congruent_lines(attacker, inspector, target_va, size)
    threshold = profile_llc_miss_rate(attacker, inspector, target_va, lines, trials)
    while size > 1:
        inspector.quiesce_caches()
        rate = profile_llc_miss_rate(
            attacker, inspector, target_va, lines[: size - 1], trials
        )
        if rate < threshold - tolerance:
            break
        size -= 1
    return size
