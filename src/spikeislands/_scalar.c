/* The neuron updates of spikeislands in C, expression for expression, so
 * that a run gives the bits of the Python and numpy code they replace:
 * neuron.advance (si_advance), the general step engine._general_step
 * (general_step), the single-neuron loop of engine._ScalarNeuron.take
 * (si_take), and the neuron layer of a network, engine._NeuronBlock.step
 * (si_block_step) and engine._QuietStretch.take (si_quiet).  Each neuron's
 * constants are its engine._step_consts.  Plain C99 and libm, no Python
 * headers; spikeislands builds it into a shared library on first use (see
 * spikeislands._kernel), and it must be compiled without floating-point
 * contraction (-ffp-contract=off), which would fuse a multiply and an add
 * into one rounding and so change bits.
 */

#include <math.h>
#include <stdint.h>

/* The constants of one neuron, engine._step_consts in its order:
 * NeuronParams.advance_consts, the detection level, the step dt with its
 * k_dt = dt / c_m and gate decay exp(-dt / tau_n), and the switch limit. */
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

/* engine._general_step, the general step of one neuron and the one spike
 * detector of every loop here: a step in which no switch flips is taken
 * with the expressions of a step with the switches held (the sum and the
 * gate relaxation, the 1 V test on the unclamped membrane, then the
 * clamp), and a step in which one flips goes through si_advance.  Returns
 * 1 and sets *onset when a spike starts in the step, else 0. */
static int general_step(double *v_m_io, double *v_n_io, double i_in, const si_consts *c, double *onset)
{
    const double v_m = *v_m_io, v_n = *v_n_io;
    const int na = v_m > c->v_th;
    const int sk = v_n > c->v_gate;
    const double i_net = i_in + (na ? c->i_na_max : 0.0) - (sk ? c->i_sink : 0.0);
    const double target = na ? c->v_n_inf : 0.0;
    const double v = v_m + i_net * c->k_dt;
    const double vn = target + (v_n - target) * c->decay;
    if ((v > c->v_th) != na || (vn > c->v_gate) != sk)
        return si_advance(v_m_io, v_n_io, i_in, c->dt, c, onset);
    const int hit = v_m < c->v_detect && c->v_detect <= v;
    if (hit)
        *onset = (c->v_detect - v_m) / (i_net / c->c_m);
    *v_m_io = v < c->lo ? c->lo : v > c->hi ? c->hi : v;
    *v_n_io = vn;
    return hit;
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
    const double v_th = c->v_th, v_gate = c->v_gate, lo = c->lo;
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
        double onset;
        if (general_step(&v_m, &v_n, i_in, c, &onset))
            spikes[n_spikes++] = k;
        if (trace && k % decim == 0)
            trace[(k / decim) * stride] = v_m;
    }
done:
    state[0] = v_m;
    state[1] = v_n;
    return n_spikes;
}

/* The neuron layer of a network, bound once per run: its n neurons, their
 * constants (c[j]) and islands, the inputs of the step (noise, a sample per
 * island, and i_syn, a current per neuron), the state (v_m, v_n), updated
 * in place, room for the spikes of one step (spiking, onsets), the level a
 * quiet step stays below (stop) and, with trace not NULL, the rows of
 * _Traces.v (n_trace columns, the neurons trace_ids) sampled after every
 * step k with (k + 1) % decim == 0.  si_block_step sets holds when, after
 * it, no neuron has a switch on. */
typedef struct {
    int64_t n;
    const si_consts *c;
    const int64_t *island_of;
    const double *noise, *i_syn;
    double *v_m, *v_n;
    int64_t *spiking;
    double *onsets;
    double stop;
    int64_t holds;
    double *trace;
    const int64_t *trace_ids;
    int64_t n_trace, decim;
} si_block;

static void sample(const si_block *b, int64_t k)
{
    if (b->trace && (k + 1) % b->decim == 0) {
        double *row = b->trace + ((k + 1) / b->decim) * b->n_trace;
        for (int64_t t = 0; t < b->n_trace; t++)
            row[t] = b->v_m[b->trace_ids[t]];
    }
}

/* _NeuronBlock.step over step k, with the input noise[island_of[j]] +
 * i_syn[j] of neuron j: writes the neurons that spike, in ascending order,
 * to spiking and the offsets of their onsets into the step to onsets, and
 * returns their number; or, when the step leaves a neuron's state not
 * finite, returns -1 - j for the first such neuron j. */
int64_t si_block_step(si_block *b, int64_t k)
{
    int64_t n_spikes = 0, bad = -1, holds = 1;
    for (int64_t j = 0; j < b->n; j++) {
        const si_consts *c = &b->c[j];
        double onset;
        if (general_step(&b->v_m[j], &b->v_n[j], b->noise[b->island_of[j]] + b->i_syn[j], c, &onset)) {
            b->spiking[n_spikes] = j;
            b->onsets[n_spikes++] = onset;
        }
        const double v_m = b->v_m[j], v_n = b->v_n[j];
        if (bad < 0 && !(isfinite(v_m) && isfinite(v_n)))
            bad = j;
        if (v_m > c->v_th || v_n > c->v_gate)
            holds = 0;
    }
    b->holds = holds;
    if (bad >= 0)
        return -1 - bad;
    sample(b, k);
    return n_spikes;
}

/* _QuietStretch.take over one batch: the quiet steps k .. k+rows-1, with
 * the membrane increment inc[r * n + j] of neuron j in step k+r, while
 * every membrane stays below stop (a NaN or +inf increment does not, and
 * so goes back to the general step).  Returns the number of steps taken;
 * the first step not taken leaves the state as it was. */
int64_t si_quiet(si_block *b, const double *inc, int64_t rows, int64_t k)
{
    const int64_t n = b->n;
    for (int64_t r = 0; r < rows; r++, inc += n) {
        for (int64_t j = 0; j < n; j++)
            if (!(b->v_m[j] + inc[j] < b->stop))
                return r;
        for (int64_t j = 0; j < n; j++) {
            const double v = b->v_m[j] + inc[j];
            b->v_m[j] = v < b->c[j].lo ? b->c[j].lo : v;
            b->v_n[j] = b->v_n[j] * b->c[j].decay;
        }
        sample(b, k + r);
    }
    return rows;
}
