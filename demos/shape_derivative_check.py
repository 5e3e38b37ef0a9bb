"""Hadamard boundary formula against centered finite differences.

dT under a boundary flow Xi is ((1+gamma)/(1-gamma)) int (d_nu u)^2 <Xi, nu>;
the eigenvalue moves by -int (d_nu u)^2 <Xi, nu>.  Rigid translations must
produce zero, and only the normal component of the flow matters.
"""

import torsionlab as tl

mesh = tl.build_disk_mesh(1.0, 100)

print("torsion, radial growth of the disk:")
for gamma in (0.0, 0.3, 0.6):
    rep = tl.fd_validate_torsion(mesh, gamma, "radial")
    print(f"  gamma = {gamma}   analytic = {rep.analytic:.6f}   "
          f"fd = {rep.fd:.6f}   rel err = {rep.rel_err:.2e}")

print("\nellipse under the one-axis stretch Xi = (x, 0):")
ell = tl.mesh_from_spec("ellipse:1:0.5:80")
rep = tl.fd_validate_torsion(ell, 0.3, "stretch-x")
print(f"  analytic = {rep.analytic:.6f}   fd = {rep.fd:.6f}   "
      f"rel err = {rep.rel_err:.2e}")

print("\nrigid translation is invisible to both functionals:")
sol = tl.solve_torsion(mesh, 0.3)
eig = tl.solve_eigen(mesh)
dT = tl.shape_derivative_torsion(sol, "translate:1,0")
dlam = tl.shape_derivative_eigen(eig, "translate:1,0")
print(f"  dT = {dT:+.2e}   dlam = {dlam:+.2e}")

print("\neigenvalue under radial growth (exact: -2 j0^2 = -11.566):")
rep = tl.fd_validate_eigen(tl.build_disk_mesh(1.0, 120), "radial")
print(f"  analytic = {rep.analytic:.4f}   fd = {rep.fd:.4f}   "
      f"rel err = {rep.rel_err:.2e}")
