/* The single-neuron loop of spikeislands in C: engine._ScalarNeuron.take and
 * neuron.advance, expression for expression, so that a run gives the bits
 * of the Python loop.  Plain C99 and libm, no Python headers; spikeislands
 * builds it into a shared library on first use (see spikeislands._kernel),
 * and it must be compiled without floating-point contraction
 * (-ffp-contract=off), which would fuse a multiply and an add into one
 * rounding and so change bits.
 */

#include <math.h>
#include <stdint.h>

/* The constants the loop reads: NeuronParams.advance_consts, the detection
 * level and the switch limit of neuron.py, and the step with
 * _ScalarNeuron's k_dt and decay. */
typedef struct {
    double v_th, v_gate, c_m, tau_n, i_na_max, i_sink, v_n_inf, lo, hi;
    double v_detect;
    double dt, k_dt, decay;
    int64_t max_switches;
} si_consts;

/* neuron.advance: (*v_m, *v_n) advanced by dt under constant input i_in.
 * Returns 1 and sets *onset when the step holds a rising crossing of the
 * detection level, else 0. */
int si_advance(double *v_m_io, double *v_n_io, double i_in, double dt, const si_consts *c,
               double *onset_out)
{
    const double v_th = c->v_th, v_gate = c->v_gate, c_m = c->c_m, tau_n = c->tau_n;
    const double i_na_max = c->i_na_max, i_sink = c->i_sink, v_n_inf = c->v_n_inf;
    const double lo = c->lo, hi = c->hi, v_detect = c->v_detect;
    double v_m = *v_m_io, v_n = *v_n_io;
    int na = v_m > v_th;
    int sk = v_n > v_gate;
    int has_onset = 0;
    double onset = 0.0;
    double t = 0.0;
    int64_t n_switch = 0;
    for (;;) {
        double i_net = i_in + (na ? i_na_max : 0.0) - (sk ? i_sink : 0.0);
        double target = na ? v_n_inf : 0.0;
        double rem = dt - t;
        double t_na = rem, t_sk = rem;
        if (n_switch < c->max_switches) {
            if ((i_net > 0.0 && !na) || (i_net < 0.0 && na))
                t_na = (v_th - v_m) / (i_net / c_m);
            if ((target > v_gate && !sk) || (target < v_gate && sk))
                t_sk = tau_n * log((v_n - target) / (v_gate - target));
        }
        double seg = t_sk < t_na ? t_sk : t_na;
        if (rem < seg)
            seg = rem;
        double v_new = v_m + i_net * (seg / c_m);
        if (!has_onset && v_m < v_detect && v_detect <= v_new) {
            onset = t + (v_detect - v_m) / (i_net / c_m);
            has_onset = 1;
        }
        v_m = v_new < lo ? lo : v_new > hi ? hi : v_new;
        v_n = target + (v_n - target) * exp(-seg / tau_n);
        if (!(seg < rem))
            break;
        if (t_na == seg) {
            v_m = v_th;
            na = !na;
        }
        if (t_sk == seg) {
            v_n = v_gate;
            sk = !sk;
        }
        t += seg;
        n_switch += 1;
    }
    *v_m_io = v_m;
    *v_n_io = v_n;
    if (has_onset)
        *onset_out = onset;
    return has_onset;
}

/* _ScalarNeuron.take: steps k+1 .. k+n under the input currents drive[0 ..
 * n-1] from the state (state[0], state[1]) = (v_m, v_n), which it replaces
 * with the state after them.  Writes the (1-based) step of each spike to
 * spikes (room for n) and returns their number.  With trace not NULL, the
 * membrane after step j is written to trace[(j / decim) * stride] whenever
 * j % decim == 0. */
int64_t si_take(const double *drive, int64_t n, int64_t k, double *state, const si_consts *c,
                 int64_t *spikes, double *trace, int64_t decim, int64_t stride)
{
    const double v_th = c->v_th, v_gate = c->v_gate, i_na_max = c->i_na_max;
    const double i_sink = c->i_sink, v_n_inf = c->v_n_inf, lo = c->lo, hi = c->hi;
    const double k_dt = c->k_dt, decay = c->decay, th = c->v_detect;
    /* A step that takes the membrane to v_th or to the detection level may
     * flip the sodium switch or start a spike: it is not quiet. */
    const double stop = th < v_th ? th : v_th;
    double v_m = state[0], v_n = state[1];
    int64_t n_spikes = 0;
    int64_t i = 0;
    while (i < n) {
        double i_in = drive[i++];
        k += 1;
        if (v_m <= v_th && v_n <= v_gate) {
            /* Both switches off: the gate voltage only decays, so a step
             * that keeps the membrane below stop is quiet. */
            double v = v_m + i_in * k_dt;
            if (v < stop) {
                v_m = v < lo ? lo : v;
                v_n = v_n * decay;
                if (trace) {
                    if (k % decim == 0)
                        trace[(k / decim) * stride] = v_m;
                    continue;
                }
                /* With no trace to sample, quiet steps run on in a loop of
                 * their own; the first other step goes to the general step. */
                for (;;) {
                    if (i == n)
                        goto done;
                    i_in = drive[i++];
                    k += 1;
                    v = v_m + i_in * k_dt;
                    if (!(v < stop))
                        break;
                    v_m = v < lo ? lo : v;
                    v_n = v_n * decay;
                }
            }
        }
        /* The general step. */
        int na = v_m > v_th;
        int sk = v_n > v_gate;
        double i_net = i_in;
        double vn;
        if (na) {
            i_net += i_na_max;
            vn = v_n_inf + (v_n - v_n_inf) * decay;
        } else {
            vn = v_n * decay;
        }
        if (sk)
            i_net -= i_sink;
        double v = v_m + i_net * k_dt;
        if ((v > v_th) != na || (vn > v_gate) != sk) {
            double onset;
            if (si_advance(&v_m, &v_n, i_in, c->dt, c, &onset))
                spikes[n_spikes++] = k;
        } else {
            if (v_m < th && th <= v)
                spikes[n_spikes++] = k;
            v_m = v < lo ? lo : v > hi ? hi : v;
            v_n = vn;
        }
        if (trace && k % decim == 0)
            trace[(k / decim) * stride] = v_m;
    }
done:
    state[0] = v_m;
    state[1] = v_n;
    return n_spikes;
}
