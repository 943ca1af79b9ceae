"""Numerical laboratory for the geometry of complex hyperbolic space
modeled on a solvable Lie group, and for its ruled minimal submanifolds,
constant-principal-curvature hypersurfaces and focal-set analysis."""
