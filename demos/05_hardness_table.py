"""Spectral hardness table for all reference instances.

The hardness parameter combines the ground degeneracy, the gap to the first
excited subspace, and a gap-suppressed sum over threatening subspaces:
HP = Sigma / (|E0| * D_opt * G^2). Instances whose degeneracy depends on
penalty defaults are flagged rather than presented as pinned values.
"""

from rydqubo import format_table, preset_report_rows

print(format_table(preset_report_rows()))
