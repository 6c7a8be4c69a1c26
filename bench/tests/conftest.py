"""Put the repository's ``src`` and root on ``sys.path`` for the tests.

Run from the repository root with ``python -m pytest bench/tests -q``;
the suite is not part of the tier-1 ``testpaths``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
