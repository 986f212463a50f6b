"""Volume-normalized conformal mean-curvature flow on the boundary sphere.

Numerical realization of a gradient-type flow that deforms the boundary
metric of the unit ball within a conformal class so that the boundary
mean curvature approaches a prescribed (possibly sign-changing)
multiple of a given function, together with the critical-point and
conformal-group machinery used to analyse its outcomes.
"""

__version__ = "0.1.0"
