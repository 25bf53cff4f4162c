"""Self-optimal piecewise-linearized DistFlow constraints for distribution
system MILP optimization."""

__version__ = "0.1.0"
