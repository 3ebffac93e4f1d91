"""The component route's bilinear kernel as it read on float lists, kept
verbatim as an independent oracle.

velocity._pq_sums reads the coefficient 4-tuples of psi and of one raised
derivative into local floats; the copy below indexes four float sequences
instead, term for term in the same order.  The component oracles in
test_route_oracles.py and test_velocity.py call this copy, never the
production kernel, so a slip in one of the production sums (a sign, an
index) shows as a bit difference rather than being shared by the oracle.
"""


def list_pq_sums(f, x, df, dx):
    """The eight bilinear sector sums over interleaved real components.

    f, x are (phi_0..phi_3), (chi_0..chi_3) of the field value and df, dx
    the same for one raised derivative, as Python floats; returns the tuples
    (P_0..P_3), (Q_0..Q_3).  Spelled out term by term rather than through
    complex products: the literal component route that tests cross-check.
    """
    p0 = (f[0]*dx[0] + x[0]*df[0] + f[1]*dx[1] + x[1]*df[1]
          + f[2]*dx[2] + x[2]*df[2] + f[3]*dx[3] + x[3]*df[3])
    q0 = (f[0]*df[0] - x[0]*dx[0] + f[1]*df[1] - x[1]*dx[1]
          + f[2]*df[2] - x[2]*dx[2] + f[3]*df[3] - x[3]*dx[3])
    p1 = (f[0]*dx[1] + x[0]*df[1] - f[1]*dx[0] - x[1]*df[0]
          - f[2]*dx[3] - x[2]*df[3] + f[3]*dx[2] + x[3]*df[2])
    q1 = (f[0]*df[1] - x[0]*dx[1] - f[1]*df[0] + x[1]*dx[0]
          - f[2]*df[3] + x[2]*dx[3] + f[3]*df[2] - x[3]*dx[2])
    p2 = (f[0]*dx[2] + x[0]*df[2] + f[1]*dx[3] + x[1]*df[3]
          - f[2]*dx[0] - x[2]*df[0] - f[3]*dx[1] - x[3]*df[1])
    q2 = (f[0]*df[2] - x[0]*dx[2] + f[1]*df[3] - x[1]*dx[3]
          - f[2]*df[0] + x[2]*dx[0] - f[3]*df[1] + x[3]*dx[1])
    p3 = (f[0]*dx[3] + x[0]*df[3] - f[1]*dx[2] - x[1]*df[2]
          + f[2]*dx[1] + x[2]*df[1] - f[3]*dx[0] - x[3]*df[0])
    q3 = (f[0]*df[3] - x[0]*dx[3] - f[1]*df[2] + x[1]*dx[2]
          + f[2]*df[1] - x[2]*dx[1] - f[3]*df[0] + x[3]*dx[0])
    return (p0, p1, p2, p3), (q0, q1, q2, q3)
