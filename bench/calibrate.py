"""Fixed calibration load: how fast the host starts Python right now.

    python3 bench/calibrate.py

Imports the package's third-party dependencies and nothing of the
package itself, so no change to cltdioph changes its time.  On a shared
host the time of every benchmark operation, set-up and compute alike,
rises and falls with how fast this runs, over phases of minutes; set-up
is mostly these same imports.  ``bench/run.py`` times it from spawn to
exit, host steal left out, after every pass and scales the times of the
run by it.
"""

import mpmath  # noqa: F401
import numpy  # noqa: F401
import scipy.integrate  # noqa: F401
import scipy.optimize  # noqa: F401
import scipy.special  # noqa: F401
