/* planswitch's sequential recurrences, one call per stack of rows, row r's inputs at r * stride. Built with
   cc -O2 -ffp-contract=off: each float operation is the retired Python loop's, in its order and never fused. */
#include <stdint.h>

/* Gap traces: -beta, then v = v + gap - drift clamped to [-beta, 0], slot by slot. */
void scan(const double *gaps, int64_t stride, const double *beta, const double *drift, int64_t rows,
          int64_t period, double *out) {
    for (int64_t r = 0; r < rows; r++) {
        double neg = -beta[r], v = neg, *o = out + r * (period + 1);
        o[0] = v;
        for (int64_t t = 0; t < period; t++) {
            v = v + gaps[r * stride + t] - drift[r];
            o[t + 1] = v = v >= 0.0 ? 0.0 : v <= neg ? neg : v;
        }
    }
}

/* States from s_0 = 0: a slot marked in hit takes its trace's plan (T + 1 a trace, s_0's first; runs rows a
   trace), any other keeps the last. A fixed run longer than cap slots is cut to plan 1, each cut counted. */
void walk(const uint8_t *hit, const uint8_t *plan, int64_t rows, int64_t runs, int64_t period, int64_t cap,
          int8_t *out, int64_t *forced) {
    for (int64_t r = 0; r < rows; r++) {
        int64_t s = 0, d = 0, n = 0;
        for (int64_t t = 0; t < period; t++) {
            s = hit[r * period + t] ? plan[r / runs * (period + 1) + t + 1] : s;
            d = s ? 0 : d + 1;
            if (d > cap) s = 1, d = 0, n++;
            out[r * period + t] = (int8_t)s;
        }
        forced[r] = n;
    }
}

/* The DP of planswitch.oracles.dp_dsps: prefix sums P of g0 as itertools.accumulate makes them (P[1] = g0[0]),
   V with a deque of run starts (A[s], s) in wa/ws, the end states (the first least wins; those within tol of it
   tie), then the walk back through each slot's run. Scratch: 3(T + 1) doubles in work, 2(T + 1) in iwork. */
void dp(const double *g0, const double *g1, int64_t stride, const double *alpha, const int64_t *cap,
        const uint8_t *literal, double tol, int64_t rows, int64_t period, double *work, int64_t *iwork,
        int8_t *states, int64_t *ties) {
    double *prefix = work, *value = work + period + 1, *wa = value + period + 1;
    int64_t *run = iwork, *ws = iwork + period + 1;
    for (int64_t r = 0; r < rows; r++) {
        const double *a0 = g0 + r * stride, *a1 = g1 + r * stride;
        double al = alpha[r];
        int64_t len = cap[r], head = 0, tail = 0, start = period + 1, n = 0, k = 0;
        prefix[0] = value[0] = 0.0, prefix[1] = a0[0], run[0] = 0;
        for (int64_t t = 2; t <= period; t++) prefix[t] = prefix[t - 1] + a0[t - 1];
        for (int64_t t = 1; t <= period; t++) {
            int64_t s = t - 1;
            if (s) {  /* s joins the deque, after every start it beats; the oldest leaves once past len */
                double a = value[s - 1] - prefix[s - 1];
                while (tail > head && wa[tail - 1] - a >= al * (double)(s - ws[tail - 1])) tail--;
                wa[tail] = a, ws[tail++] = s;
                if (ws[head] < t - len) head++;
            }
            double best = value[t - 1], c = best;
            if (tail > head) c = wa[head] + prefix[t - 1] + al * (double)(len - (t - ws[head]));
            run[t] = c < best ? t - ws[head] : 0;
            value[t] = (c < best ? c : best) + a1[t - 1];
        }
        double best = wa[0] = value[period];  /* the end states: the variable plan, then open runs, shortest first */
        for (int64_t s = period; s > period - len && s > 0; s--) {
            double c = value[s - 1] + (prefix[period] - prefix[s - 1]);
            wa[++k] = literal[r] ? c + al * (double)(len - (period - s + 1)) : c;
            if (wa[k] < best) best = wa[k], start = s;
        }
        for (; k >= 0; k--) n += wa[k] <= best + tol;
        ties[r] = n;
        for (int64_t i = 0; i < period; i++) states[r * period + i] = 1;
        for (int64_t t = period + 1; t > 0; t = start - 1, start = t - run[t])
            for (int64_t i = start - 1; i < t - 1; i++) states[r * period + i] = 0;
    }
}

/* The cost folds: each row's total, a strict left fold from 0.0, its states or fractions at r * period and its costs
   g0, g1 at r * stride. sp adds g_t(s_t), then beta for an up move (s_0 = 0), else 0.0. */
void sp(const int8_t *s, const double *g0, const double *g1, int64_t stride, int64_t rows, int64_t period,
        double *out, const double *beta) {
    for (int64_t r = 0; r < rows; r++, s += period, g0 += stride, g1 += stride) {
        double total = 0.0;
        for (int64_t t = 0; t < period; t++) {
            total += (s[t] ? g1 : g0)[t];
            total += (double)(s[t] > (t ? s[t - 1] : 0)) * beta[r];
        }
        out[r] = total;
    }
}

/* dsp adds every g_t(s_t), then each fixed run's fee alpha * (cap - d) at its last slot, a run open at T only when
   literal. The first run longer than cap, row-major, stops it, its last slot's flat index in overrun[0] (else -1). */
void dsp(const int8_t *s, const double *g0, const double *g1, int64_t stride, int64_t rows, int64_t period,
         double *out, const double *alpha, const int64_t *cap, const uint8_t *literal, int64_t *overrun) {
    overrun[0] = -1;
    for (int64_t r = 0; r < rows; r++, s += period, g0 += stride, g1 += stride) {
        double total = 0.0;
        for (int64_t t = 0; t < period; t++) total += (s[t] ? g1 : g0)[t];
        for (int64_t t = 0, d = 0; t < period; t++) {
            d = s[t] ? 0 : d + 1;
            if (!d || (t + 1 < period && !s[t + 1])) continue;  /* not the last slot of a run */
            if (d > cap[r]) { overrun[0] = r * period + t; return; }
            if (t + 1 < period || literal[r]) total += alpha[r] * (double)(cap[r] - d);
        }
        out[r] = total;
    }
}

/* csp adds (g1 - g0) * x_t + g0, then beta * (x_t - x_{t-1}) for an up move (x_0 = 0), else 0.0. */
void csp(const double *x, const double *g0, const double *g1, int64_t stride, int64_t rows, int64_t period,
         double *out, const double *beta) {
    for (int64_t r = 0; r < rows; r++, x += period, g0 += stride, g1 += stride) {
        double total = 0.0;
        for (int64_t t = 0; t < period; t++) {
            double up = x[t] - (t ? x[t - 1] : 0.0);
            total += (g1[t] - g0[t]) * x[t] + g0[t];
            total += up > 0.0 ? beta[r] * up : 0.0;
        }
        out[r] = total;
    }
}
