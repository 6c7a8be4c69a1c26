"""Section V mitigations: ANVIL (stock vs extended) and TRR.

The paper's discussion, reproduced as a matrix:

* stock ANVIL samples *load* addresses, so it stops the clflush
  baseline but is blind to PThammer's walker-generated traffic
  ("Anvil ... will have to be extended to also check the L1PTE
  addresses to detect PThammer");
* the extended detector (watching walk fetches too) stops PThammer;
* an in-controller counter scheme (TRR/TWiCe-style) stops both — at
  the cost of new hardware, which is the paper's deployability point.
"""

from conftest import emit

from repro.analysis import mitigation_matrix


def test_mitigation_matrix(once, benchmark):
    rows = {
        "%s/%s" % (attack, mitigation): flips
        for attack, mitigation, flips in once(mitigation_matrix)
    }
    emit("Section V mitigation matrix (ground-truth flips): %r" % rows)
    assert rows["explicit/none"] > 0
    assert rows["explicit/ANVIL (loads)"] == 0  # stock ANVIL stops explicit hammer
    assert rows["pthammer/none"] > 0
    assert rows["pthammer/ANVIL (loads)"] > 0  # ... but is blind to PThammer
    assert rows["pthammer/ANVIL (loads+walks)"] == 0  # the paper's extension works
    assert rows["pthammer/TRR counter"] == 0  # counter-based hardware stops it too
    benchmark.extra_info.update(rows)
