"""rzeta: resonance-method lower-bound certificates for large values of
zeta derivatives on the 1-line, with every computational object checked
against an independent route at desk scale."""
