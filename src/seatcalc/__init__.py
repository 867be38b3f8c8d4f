"""Seat apportionment by divisor methods, family-level rounding, and
distribution-matched rounding marks.

The package splits into: exact rounding-mark formulas (:mod:`.signposts`),
quota and family bookkeeping (:mod:`.core`), the apportionment engine with
divisor search (:mod:`.engine`), population distributions and unbiased marks
(:mod:`.distributions`), paradox scanners and worked fixtures
(:mod:`.paradoxes`), census statistics (:mod:`.census`), and the ``seatcalc``
command line (:mod:`.cli`).
"""

# each module's ``__all__`` is the one list of its public names; the
# package exports all six lists, in this order
from . import census, core, distributions, engine, paradoxes, signposts
from .census import *
from .core import *
from .distributions import *
from .engine import *
from .paradoxes import *
from .signposts import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += census.__all__
__all__ += core.__all__
__all__ += distributions.__all__
__all__ += engine.__all__
__all__ += paradoxes.__all__
__all__ += signposts.__all__
