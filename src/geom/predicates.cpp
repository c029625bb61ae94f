// Adaptive-precision orientation predicate, after Jonathan Shewchuk's
// "Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
// Predicates" (1997). Implements the two-stage orient2d: a filtered double
// evaluation, then exact expansion arithmetic when the filter cannot decide.

#include "geom/predicates.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace psclip::geom {
namespace {

// Machine epsilon related constants, computed once. `splitter` is used by
// two_product; error bounds follow Shewchuk's derivation.
struct Constants {
  double epsilon;
  double splitter;
  double ccwerrboundA, ccwerrboundB, ccwerrboundC, resulterrbound;
  Constants() {
    double half = 0.5;
    epsilon = 1.0;
    splitter = 1.0;
    bool every_other = true;
    double check = 1.0, lastcheck;
    do {
      lastcheck = check;
      epsilon *= half;
      if (every_other) splitter *= 2.0;
      every_other = !every_other;
      check = 1.0 + epsilon;
    } while (check != 1.0 && check != lastcheck);
    splitter += 1.0;
    resulterrbound = (3.0 + 8.0 * epsilon) * epsilon;
    ccwerrboundA = (3.0 + 16.0 * epsilon) * epsilon;
    ccwerrboundB = (2.0 + 12.0 * epsilon) * epsilon;
    ccwerrboundC = (9.0 + 64.0 * epsilon) * epsilon * epsilon;
  }
};
const Constants kC;

inline void fast_two_sum(double a, double b, double& x, double& y) {
  x = a + b;
  double bvirt = x - a;
  y = b - bvirt;
}

inline void two_sum(double a, double b, double& x, double& y) {
  x = a + b;
  double bvirt = x - a;
  double avirt = x - bvirt;
  double bround = b - bvirt;
  double around = a - avirt;
  y = around + bround;
}

inline void two_diff(double a, double b, double& x, double& y) {
  x = a - b;
  double bvirt = a - x;
  double avirt = x + bvirt;
  double bround = bvirt - b;
  double around = a - avirt;
  y = around + bround;
}

inline void split(double a, double& hi, double& lo) {
  double c = kC.splitter * a;
  double abig = c - a;
  hi = c - abig;
  lo = a - hi;
}

inline void two_product(double a, double b, double& x, double& y) {
  x = a * b;
  double ahi, alo, bhi, blo;
  split(a, ahi, alo);
  split(b, bhi, blo);
  double err1 = x - (ahi * bhi);
  double err2 = err1 - (alo * bhi);
  double err3 = err2 - (ahi * blo);
  y = (alo * blo) - err3;
}

// Sum two expansions with zero elimination; result length returned. The
// look-ahead reads are guarded: Shewchuk's original reads one element past
// the end of whichever input runs out first (the value is never used), which
// overflows the fixed-size expansion buffers of orient2d_adapt.
int fast_expansion_sum_zeroelim(int elen, const double* e, int flen,
                                const double* f, double* h) {
  double Q, Qnew, hh;
  int eindex = 0, findex = 0, hindex = 0;
  double enow = e[0], fnow = f[0];
  if ((fnow > enow) == (fnow > -enow)) {
    Q = enow;
    if (++eindex < elen) enow = e[eindex];
  } else {
    Q = fnow;
    if (++findex < flen) fnow = f[findex];
  }
  if (eindex < elen && findex < flen) {
    if ((fnow > enow) == (fnow > -enow)) {
      fast_two_sum(enow, Q, Qnew, hh);
      if (++eindex < elen) enow = e[eindex];
    } else {
      fast_two_sum(fnow, Q, Qnew, hh);
      if (++findex < flen) fnow = f[findex];
    }
    Q = Qnew;
    if (hh != 0.0) h[hindex++] = hh;
    while (eindex < elen && findex < flen) {
      if ((fnow > enow) == (fnow > -enow)) {
        two_sum(Q, enow, Qnew, hh);
        if (++eindex < elen) enow = e[eindex];
      } else {
        two_sum(Q, fnow, Qnew, hh);
        if (++findex < flen) fnow = f[findex];
      }
      Q = Qnew;
      if (hh != 0.0) h[hindex++] = hh;
    }
  }
  while (eindex < elen) {
    two_sum(Q, enow, Qnew, hh);
    if (++eindex < elen) enow = e[eindex];
    Q = Qnew;
    if (hh != 0.0) h[hindex++] = hh;
  }
  while (findex < flen) {
    two_sum(Q, fnow, Qnew, hh);
    if (++findex < flen) fnow = f[findex];
    Q = Qnew;
    if (hh != 0.0) h[hindex++] = hh;
  }
  if (Q != 0.0 || hindex == 0) h[hindex++] = Q;
  return hindex;
}

double estimate(int elen, const double* e) {
  double Q = e[0];
  for (int i = 1; i < elen; ++i) Q += e[i];
  return Q;
}

double orient2d_adapt(const Point& pa, const Point& pb, const Point& pc,
                      double detsum) {
  double acx = pa.x - pc.x;
  double bcx = pb.x - pc.x;
  double acy = pa.y - pc.y;
  double bcy = pb.y - pc.y;

  double detleft, detlefttail, detright, detrighttail;
  two_product(acx, bcy, detleft, detlefttail);
  two_product(acy, bcx, detright, detrighttail);

  // B = two_two_diff((detleft, detlefttail), (detright, detrighttail))
  double B[4];
  {
    double _i, _j, _0;
    two_diff(detlefttail, detrighttail, _i, B[0]);
    two_sum(detleft, _i, _j, _0);
    two_diff(_0, detright, _i, B[1]);
    two_sum(_j, _i, B[3], B[2]);
  }

  double det = estimate(4, B);
  double errbound = kC.ccwerrboundB * detsum;
  if (det >= errbound || -det >= errbound) return det;

  double acxtail, bcxtail, acytail, bcytail;
  {
    double x;
    two_diff(pa.x, pc.x, x, acxtail);
    two_diff(pb.x, pc.x, x, bcxtail);
    two_diff(pa.y, pc.y, x, acytail);
    two_diff(pb.y, pc.y, x, bcytail);
  }
  if (acxtail == 0.0 && acytail == 0.0 && bcxtail == 0.0 && bcytail == 0.0)
    return det;

  errbound = kC.ccwerrboundC * detsum + kC.resulterrbound * std::fabs(det);
  det += (acx * bcytail + bcy * acxtail) - (acy * bcxtail + bcx * acytail);
  if (det >= errbound || -det >= errbound) return det;

  auto two_two_diff = [](double a1, double a0, double b1, double b0,
                         double* x) {
    double _i, _j, _0;
    two_diff(a0, b0, _i, x[0]);
    two_sum(a1, _i, _j, _0);
    two_diff(_0, b1, _i, x[1]);
    two_sum(_j, _i, x[3], x[2]);
  };

  double u[4];
  double C1[8], C2[12], D[16];
  double s1, s0, t1, t0;

  two_product(acxtail, bcy, s1, s0);
  two_product(acytail, bcx, t1, t0);
  two_two_diff(s1, s0, t1, t0, u);
  int C1length = fast_expansion_sum_zeroelim(4, B, 4, u, C1);

  two_product(acx, bcytail, s1, s0);
  two_product(acy, bcxtail, t1, t0);
  two_two_diff(s1, s0, t1, t0, u);
  int C2length = fast_expansion_sum_zeroelim(C1length, C1, 4, u, C2);

  two_product(acxtail, bcytail, s1, s0);
  two_product(acytail, bcxtail, t1, t0);
  two_two_diff(s1, s0, t1, t0, u);
  int Dlength = fast_expansion_sum_zeroelim(C2length, C2, 4, u, D);

  return D[Dlength - 1];
}

}  // namespace

double orient2d(const Point& pa, const Point& pb, const Point& pc) {
  double detleft = (pa.x - pc.x) * (pb.y - pc.y);
  double detright = (pa.y - pc.y) * (pb.x - pc.x);
  double det = detleft - detright;
  double detsum;

  if (detleft > 0.0) {
    if (detright <= 0.0) return det;
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return det;
    detsum = -detleft - detright;
  } else {
    return det;
  }

  double errbound = kC.ccwerrboundA * detsum;
  if (det >= errbound || -det >= errbound) return det;
  return orient2d_adapt(pa, pb, pc, detsum);
}

int orient2d_sign(const Point& a, const Point& b, const Point& c) {
  double d = orient2d(a, b, c);
  return (d > 0.0) - (d < 0.0);
}

bool on_segment(const Point& a, const Point& b, const Point& p) {
  if (orient2d(a, b, p) != 0.0) return false;
  return std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) &&
         std::min(a.y, b.y) <= p.y && p.y <= std::max(a.y, b.y);
}

}  // namespace psclip::geom
