"""Selfish rate control over a shared FCFS queue.

Closed-form equilibria and efficiency ratios, synthesis of dropping policies
that steer the equilibrium, best-response dynamics, and a slotted stochastic
simulator of the whole loop.
"""

from .analysis import *
from .dynamics import *
from .mechanism import *
from .model import *
from .simulator import *

__version__ = "0.1.0"
