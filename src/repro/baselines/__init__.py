"""Competitor embedding methods (DESIGN.md §2): factorization-based
(AROPE, RandNE, NetMF, ProNE, STRAP), random-walk SGNS (DeepWalk, LINE,
APP, VERSE), and a small neural autoencoder (GAE)."""
