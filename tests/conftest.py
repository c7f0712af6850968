"""Shared fixtures and precomputed high-precision reference values.

Reference constants were computed once with an arbitrary-precision package
before the build and frozen here; they are independent of the code under
test.
"""

import math
import random

import pytest

# zeta(s, a, c) references
Z_BASE = complex(0.94425831423820007992, 0.0)  # (1/2, 1/2, 1/2)
Z_S0_AI_C1 = complex(1.0018709365986606441, 0.0)  # (0, i, 1) = 1/(1 - e^{-2 pi})
Z_2_I_1 = complex(1.0004672485729238729, 0.0)
Z_1_I_1 = complex(1.0009348854438452007, 0.0)
Z_05_04_06 = complex(0.85030324638498035169, 0.1702791075545324348)
Z_M05_04_06 = complex(0.22567242168866682929, 0.13908660779056910475)
Z_M3_05_05 = complex(0.0, 0.0)
Z_15_04_06 = complex(1.8320275260955288571, 0.15512054413433526235)
Z_25_03_02i_07 = complex(2.4111593757669638239, 0.067471810545761627383)
Z_05_03_02i_07 = complex(1.097837681501666021, 0.17430156590367620427)
Z_C2 = complex(0.60210200931336634319, 0.034153230894431166033)  # (0.7, 0.3+0.4i, 2)
Z_07_03i04_m15 = complex(-0.24065751961272490901, -0.65024842584635008684)
Z_COMPLEX_S = complex(0.28969810539601873978, 0.64343510196149722057)  # (1.3+2.1i, .35+.2i, .7-.3i)
Z_HIGH_IMS = complex(0.97032574823794411851, 1.0059306863808751233)  # (0.5+5i, .35, .65)
Z_3_03_07 = complex(2.8267250536459371788, 0.15953460458991894859)
# principal-sheet value just right of the downward ray below a = 1, deep in the
# lower half-plane (from direct quadrature of the integral representation)
Z_NEAR_CUT = complex(-9.8515975171897576362, 9.3791318783265704326)  # (0.753+1.504i, 1.011-0.1725i, 0.4209-0.2332i)
# points with Re c an integer, and a point whose series misses 1e-10 at Im a > 0
# (mpmath lerchphi(exp(2 pi i a), s, c) at 30 digits)
Z_INT_C_1 = complex(0.062861503412834277473, 0.44120422682893970421)  # (-0.5+0.3i, 0.3-0.1i, 1+0.2i)
Z_INT_C_2 = complex(-0.15772108850726197806, -0.37427271315190887134)  # (-1.2-0.4i, 0.7-0.05i, 1)
Z_INT_C_3 = complex(0.034800088635861202174, -0.10807593520464015533)  # (-0.8, 1.6-0.2i, 1-0.25i)
Z_SERIES_FALLBACK = complex(-0.031992073591436600927, 0.10270279924049466904)
# more points on integer lines Re c (mpmath lerchphi at 30 digits, which agrees with
# 50 digits to 2e-29): real c = 1 and 2 with real and complex a; c = 1 +- 0.2i with
# |Im s| = 8, where the inner integral's ray turns over or away from a pole on the
# t-axis; real c near the pole s = 0 of the transform's two Hurwitz values
Z_INT_RE_C = [
    ((-0.5 + 0.5j, 0.3, 1.0), complex(0.34792081307636056394, 0.60329207550361515284)),
    ((-1.5, 0.45, 2.0), complex(0.86777102161823411227, 0.21350609028941277191)),
    ((-0.5, 0.3 - 0.2j, 1.0), complex(0.032164228707269376259, 0.142972046377978427)),
    ((-1.2 + 0.7j, 0.6 - 0.35j, 2.0), complex(0.088271435082991752805, -0.066962575293647698814)),
    ((-0.5 - 8j, 0.3 - 0.1j, 1 + 0.2j), complex(1.515965953021583046, -0.14637634424749119885)),
    ((-0.5 + 8j, 0.3 - 0.1j, 1 - 0.2j), complex(-31.141096405716843327, 14.661743394340644103)),
    ((-0.5 + 8j, 0.3 - 0.1j, 1 + 0.2j), complex(-52.860031953455294395, 47.810509242609310831)),
    ((-0.5 - 8j, 0.3 - 0.1j, 1 - 0.2j), complex(11.060537554845273523, 1.5568790747807951414)),
    ((0.0, 0.3 - 0.1j, 1.0), complex(0.27842404632503361177, 0.31429721685799501706)),
    ((0.0, 0.7 - 0.25j, 2.0), complex(0.091707011751284598546, -0.16873501596956391567)),
    ((1e-9j, 0.3 - 0.1j, 1.0), complex(0.27842404627471239195, 0.31429721718133081788)),
    ((1e-9j, 0.7 - 0.25j, 2.0), complex(0.091707011706503490048, -0.16873501595610030596)),
    ((-1e-7, 0.3 - 0.1j, 1.0), complex(0.27842401399145343553, 0.314297211825872233)),
    ((-1e-7, 0.7 - 0.25j, 2.0), complex(0.091707010404923529417, -0.16873502044767466605)),
    ((2j, 0.3 - 0.1j, 1.0), complex(0.53268060979688544098, 1.4997569440972159724)),
    ((2j, 0.7 - 0.25j, 2.0), complex(0.017473294038139556706, -0.17106919920170360555)),
]
# just off the integer lines Re c, where the transform at c would put an inner integrand
# pole within 2 pi |Im c| of t = 0 (mpmath lerchphi at 30 digits, which agrees with 50
# digits to 1e-29).  The last two have Re a within 1.5e-4 of an integer and Im a < 0,
# where lerchphi leaves the principal sheet at non-real c: they are the Taylor series in
# c about the integer, 40 terms of mpmath lerchphi at real c and 40 digits (30 digits
# agree to 7e-29), and the integral at Re(s + k) > 0 would meet a pole near its axis
Z_NEAR_RE_C = [
    ((-0.5, 0.3 - 0.1j, 1 + 1e-5j), complex(0.11798301362927952742, 0.2675840099158623069)),
    ((-0.5, 0.3 - 0.1j, 1 - 1e-5j), complex(0.11798622776701609387, 0.26757966279849623374)),
    ((-0.5, 0.3 - 0.1j, 2 + 1e-9j), complex(0.2811712655660772336, 0.40340189583239178862)),
    ((-0.5 + 8j, 0.3 - 0.1j, 1 + 1e-3j), complex(-41.973238105438210778, 27.357821359125938213)),
    ((0.0, 0.45, 3 - 1e-6j), complex(0.5, 0.079192220162268129043)),
    ((-1.5 - 4j, 0.6 - 0.2j, 2 - 5e-3j), complex(1.9255285044611982912, -0.10761666600906205244)),
    ((-0.5 - 3j, 0.999999 - 0.2j, 2 - 5e-3j), complex(-42.231834854102999934, 24.829789520362518912)),
    ((-0.5 + 2j, 1.5e-4 - 0.3j, 3 + 2e-3j), complex(0.020647750867068118136, 0.071701119203977296212)),
]
# real a at large |Im s|, where the integral's 1/Gamma(s) cancels catastrophically
# (mpmath lerchphi(exp(2 pi i a), s, c) at 30 digits, a = 0.3 as a binary64 value)
Z_REAL_A_30 = complex(-1.9742151518785522633, 2.0858816663986186912)  # (0.5+30i, 0.3, 0.5)
Z_REAL_A_M45 = complex(2.4267720156948918468, -0.21699913017316621214)  # (0.5-45i, 0.3, 0.5)
Z_REAL_A_60 = complex(-1.5246989562846352946, -1.3946300958739773701)  # (0.5+60i, 0.3, 0.5)
Z_REAL_A_30_C = complex(-3429184549553830.6619, -14533184661598375.981)  # (0.5+30i, 0.3, 0.5+1.5i)
# the series tail at integer a (mpmath zeta(s, c)) and at Im a of a few 1e-6 with
# large |Im s| (mpmath lerchphi(exp(2 pi i a), s, c)), at 30 digits
Z_INT_A = complex(18.117790319779529831, -1.3158218967621077377)  # (1.5+2i, 0 or 2, 0.3+0.4i)
Z_SMALL_IM_A_1 = complex(-0.45294697411338934483, 0.97968803499447088054)  # (0.497+20.5i, 0.215+1.8e-6i, 0.895-0.519i)
Z_SMALL_IM_A_2 = complex(0.21311076988305910749, -0.51015976101964395578)  # (1.43+23.8i, 0.26+3e-6i, 1.02)
# an inner evaluation of the transform with Re c <= 0.05, and points with Re a
# near 0 or 1 and real c (mpmath lerchphi(exp(2 pi i a), s, c) at 30 digits;
# its sheet is the principal one where |z| < 1 or c is real)
Z_INNER_SHIFT = complex(56287.511103682622504, 0.0)  # (-0.5, 1e-4i, 0.5)
Z_EDGE_A_0 = complex(-0.080074048827982171519, -0.8683522252590659187)  # (-0.5+0.3i, 0.02-0.2i, 0.4)
Z_EDGE_A_1 = complex(11.058140708115939726, 7.2358885896334102896)  # (-1.3-0.7i, 0.97-0.1i, 0.65)
# the integral route at small Re s, complex c and Re a near 0 or 1 (mpmath at 40
# digits: the exact power series on [0, e0] with coefficients from a 256-node
# trapezoid rule on |t| = 2 e0, plus quadrature from e0 on with breakpoints
# around the pole column; plain quadrature from 0 is off by up to 3e-2 here)
Z_INTEGRAL_ROUTE = [
    ((0.2 + 3j, 0.97 - 0.1j, 0.6 + 0.3j), complex(1.0882850934987281733, 2.8977002976004832902)),
    ((0.15 - 1.5j, 0.03 - 0.12j, 1.2 - 0.4j), complex(0.10187946032708118614, 0.71966480270655727138)),
    ((0.3 + 4.5j, 0.96 - 0.05j, 0.35 + 0.8j), complex(176.41961544619051092, 44.571002443785717801)),
    ((0.25 - 4j, 0.04 - 0.15j, 0.8), complex(0.031038938343360420194, -0.68267165406452004434)),
    ((0.18 + 1.2j, 0.99 - 0.08j, 1.5 + 0.5j), complex(-0.4556214315765091327, -0.81427133576756517634)),
    ((0.164 + 4.627j, 0.9639 - 0.3298j, 1.2333 - 0.4131j), complex(0.022270599885529166542, 0.015389276663894925338)),
]
# the integral route at large |Im s|, where the real-axis integral loses e^{pi |Im s| / 2}
# to 1/Gamma(s) (mpmath lerchphi(exp(2 pi i a), s, c) at 80 and 120 digits, which agree;
# at 30 digits it is wrong here), and a point whose nominal ray runs through the pole
# t_0 = 2 pi i a (30 and 50 digits agree)
Z_INTEGRAL_RAY = [
    ((0.5 + 100j, 0.3 - 0.1j, 0.5), complex(-116249459341313.6201174185, -37613705136092.4912915245)),
    ((0.5 - 120j, 0.3 - 0.1j, 0.5), complex(19645524.03374437096861702, 8903658.638851088629210959)),
    (
        (0.7 + 8j, 0.08175377099900369 - 0.12732395447351627j, 0.6),
        complex(-1240.284093868614760918193, -2840.495114647266249340864),
    ),
]

# the integral at Re a = 0 or 1 with Im a < 0, where the pole t_k, k = Re a, lies on the
# t-axis: the limit from inside 0 < Re a < 1 (mpmath quad at 40 digits over a ray tilted
# away from the axis to the pole's far side, which agrees at a second angle to 6e-27
# relative): the ray turned up over the pole at Re a = 0, its mirror image at Re a = 1 by
# conjugation, a ray tilted off the axis both ways, the tilt bounded by Re(c e^{i theta}) > 0,
# and the ray turned up above the pole at Re a = 1
Z_AXIS_POLE = [
    ((1.5 + 8j, -0.2j, 0.3 - 0.1j), complex(64958.233212580298975, -23123.112316915853747)),
    ((1.5 - 8j, 1 - 0.2j, 0.3 + 0.1j), complex(64958.233212580298975, 23123.112316915853747)),
    ((1.5, -0.2j, 0.3 - 0.1j), complex(4.2297522279309787086, 5.5049555460060994683)),
    ((1.5, 1 - 0.3j, 1.05 + 0.9j), complex(-1.2130745526326849325, 0.30041699755095102947)),
    (
        (1.9417165351487475 - 0.876311283328608j, 1 - 0.5992864491233267j, 0.1395413006423473 + 0.6862524871519032j),
        complex(3.8747602465097248522, 16.625451664056742025),
    ),
    ((1.5 + 8j, 1 - 0.2j, 0.3 - 0.1j), complex(-0.047253865571246334258, -1.3031254457262048943)),
]

PI2_12 = math.pi**2 / 12.0
PI2_6 = math.pi**2 / 6.0

# two-sided sums
TS_PLUS_3_05_05 = complex(0.0, 0.0)
TS_PLUS_3_03_07 = complex(-8.9206128481395396712, -34.771635582530411365)
TS_MINUS_4_05_05 = complex(31.646225655715370755, 0.0)
TS_MINUS_3_05_05 = complex(15.503138340149910088, 0.0)

# gamma references on the contract box |Im| <= 50, -50 <= Re <= 50
GAMMA_HALF = complex(1.7724538509055160273, 0.0)
RGAMMA_2_5 = complex(0.75225277806367504926, 0.0)
GAMMA_GRID = [
    (complex(0.5, 0.0), complex(1.7724538509055160273, 0.0)),
    (complex(1.0, 0.0), complex(1.0, 0.0)),
    (complex(2.5, 0.0), complex(1.3293403881791370205, 0.0)),
    (complex(-2.5, 0.0), complex(-0.94530872048294188123, 0.0)),
    (complex(0.5, 50.0), complex(9.0332043526006192339e-35, 1.7263622522690938061e-34)),
    (complex(-0.5, 50.0), complex(3.4343146643665497187e-36, -1.840984017163789344e-36)),
    (complex(50.0, 0.0), complex(6.0828186403426756087e62, 0.0)),
    (complex(50.0, 50.0), complex(1.1121416728629092081e53, 1.0242389193852624159e53)),
    (complex(-49.5, 0.0), complex(7.3222696892341270352e-64, 0.0)),
    (complex(-49.5, 0.5), complex(-1.0993261838402478908e-64, 2.7110924335111542237e-64)),
    (complex(-50.0, 50.0), complex(3.5479617137674991867e-123, -1.4598316657859098942e-124)),
    (complex(3.7, -20.2), complex(1.6414369550439737641e-10, -6.1171049630561293809e-10)),
    (complex(-15.3, 7.7), complex(-3.944434760080409431e-22, -6.9953859159123820325e-23)),
    (complex(30.1, -44.9), complex(3.1838891789488117305e19, 3.1192187501297232932e18)),
    (complex(0.3, 0.2), complex(1.9803581728234425391, -1.4145760083733033149)),
    (complex(-8.5, -8.5), complex(-3.0932329506187350766e-15, 3.5251405157742093414e-15)),
]


@pytest.fixture
def rng():
    return random.Random(20260810)
