"""The paper's contribution: ApproxPPR (Alg. 1), node reweighting
(Algs. 2 & 4), and the complete NRP pipeline (Alg. 3)."""
