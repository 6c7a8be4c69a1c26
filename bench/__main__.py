import sys

from bench.run import main

sys.exit(main())
