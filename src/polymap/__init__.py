"""polymap: polyhedral maps on surfaces.

Signed rotation systems, facial walks and Euler characteristic,
polyhedrality checks, combinatorial curvature and light vertices,
exact-rational discharging, and path transferability.

The package's public names are those of each module's ``__all__``,
re-exported here as they are.  No ``__all__`` lists a submodule's name,
so every submodule stays reachable under its own name:
``polymap.transferability`` is the module, and its sweep function is
imported from there.
"""

from .curvature_light import *
from .discharging import *
from .errors import *
from .generators import *
from .mapfile import *
from .surface_map import *
from .transferability import *
from .validity import *

__version__ = "0.1.0"
