"""Fault injection, hazard diagnosis and the degradation contract."""
