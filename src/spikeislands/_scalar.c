/* The neuron updates of spikeislands in C, expression for expression, so
 * that a run gives the bits of the Python and numpy code they replace:
 * neuron.advance (si_advance), the general step engine._general_step
 * (general_step), and the neuron layer of a network, one neuron without
 * synapses included: a busy step, engine._NeuronBlock.step
 * (si_block_step), and the idle steps, engine._NeuronLayer.run (si_run),
 * with the quiet stretches of engine._QuietStretch.take.  Each neuron's
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

/* The neuron layer of a network, bound once per run: the n neurons'
 * constants and islands; a busy step's inputs, noise (a sample per island)
 * and i_syn (a current per neuron), and an idle step's, the held noise block
 * (a row of width samples per island, column 0 being sample first, each
 * read by hold steps) and floor (the synapses' floor input); the state,
 * updated in place; a step's spikes; the neurons that drive synapse outputs
 * (drives); an idle run's room (1-based step, neuron) pairs of buffer, of
 * which it writes n_fired, its first step not taken (k) and the count of
 * quiet steps; room for the state (save); with trace not NULL, the rows of
 * _Traces.v (n_trace columns, neuron j's trace_col[j] or none if -1),
 * sampled after every step k with (k + 1) % decim == 0; the quiet level. */
typedef struct {
    const si_consts *c;
    const int64_t *island_of;
    const double *noise, *i_syn, *held, *floor;
    double *v_m, *v_n;
    int64_t *spiking;
    double *onsets;
    const uint8_t *drives;
    int64_t *buffer;
    double *save, *trace;
    const int64_t *trace_col;
    int64_t n, width, first, hold, room, n_fired, k, quiet_steps, n_trace, decim;
    double stop;
} si_block;

/* _NeuronBlock.step over step k, with the input noise[island_of[j] *
 * stride] + i_syn[j] of neuron j: writes the spiking neurons, ascending, and
 * their onsets, samples the trace, sets *holds when no switch is on, and
 * returns the number of spikes, or -1 - j for the first neuron j left with
 * a state that is not finite. */
static int64_t block_step(si_block *b, const double *noise, int64_t stride, const double *i_syn, int64_t k,
                          int *holds)
{
    int64_t n_spikes = 0, bad = -1;
    *holds = 1;
    for (int64_t j = 0; j < b->n; j++) {
        const si_consts *c = &b->c[j];
        double onset;
        if (general_step(&b->v_m[j], &b->v_n[j], noise[b->island_of[j] * stride] + i_syn[j], c, &onset)) {
            b->spiking[n_spikes] = j;
            b->onsets[n_spikes++] = onset;
        }
        const double v_m = b->v_m[j], v_n = b->v_n[j];
        if (bad < 0 && !(isfinite(v_m) && isfinite(v_n)))
            bad = j;
        if (v_m > c->v_th || v_n > c->v_gate)
            *holds = 0;
    }
    if (bad >= 0)
        return -1 - bad;
    if (b->trace && (k + 1) % b->decim == 0) {
        double *row = b->trace + ((k + 1) / b->decim) * b->n_trace;
        for (int64_t j = 0; j < b->n; j++)
            if (b->trace_col[j] >= 0)
                row[b->trace_col[j]] = b->v_m[j];
    }
    return n_spikes;
}

/* The general step k of a busy step, under noise and i_syn: block_step. */
int64_t si_block_step(si_block *b, int64_t k)
{
    int holds;
    return block_step(b, b->noise, 1, b->i_syn, k, &holds);
}

/* Neuron j alone through the quiet steps k .. lim-1 of _QuietStretch.take
 * while its membrane stays below stop (a NaN or +inf increment does not);
 * returns the first step not taken, which leaves the state as it was. */
static int64_t quiet_neuron(si_block *b, int64_t j, int64_t k, int64_t lim)
{
    const si_consts *c = &b->c[j];
    const double *x = b->held + b->island_of[j] * b->width;
    const double fl = b->floor[j], k_dt = c->k_dt, lo = c->lo, decay = c->decay, stop = b->stop;
    const int64_t hold = b->hold, decim = b->decim, col = b->trace ? b->trace_col[j] : -1;
    int64_t s = k / hold - b->first, r = k % hold, left = decim - k % decim;
    double v_m = b->v_m[j], v_n = b->v_n[j];
    for (; k < lim; k++) {
        const double v = v_m + (((x[s] + fl) + 0.0) - 0.0) * k_dt;
        if (!(v < stop))
            break;
        v_m = v < lo ? lo : v;
        v_n = v_n * decay;
        if (col >= 0 && --left == 0) {
            b->trace[((k + 1) / decim) * b->n_trace + col] = v_m;
            left = decim;
        }
        if (++r == hold) {
            r = 0;
            s++;
        }
    }
    b->v_m[j] = v_m;
    b->v_n[j] = v_n;
    return k;
}

/* A quiet stretch from step k to the first step in which a membrane would
 * not stay below stop, or to end; returns that step.  Each neuron runs alone
 * to its first such step or an earlier one of the neurons before it, which
 * are taken again from their start when a later neuron stops earlier. */
static int64_t quiet(si_block *b, int64_t k, int64_t end)
{
    int64_t lim = end, last = 0;
    for (int64_t j = 0; j < b->n; j++) {
        b->save[2 * j] = b->v_m[j];
        b->save[2 * j + 1] = b->v_n[j];
        const int64_t e = quiet_neuron(b, j, k, lim);
        if (e < lim) {
            lim = e;
            last = j;
        }
    }
    for (int64_t j = 0; j < last; j++) {
        b->v_m[j] = b->save[2 * j];
        b->v_n[j] = b->save[2 * j + 1];
        quiet_neuron(b, j, k, lim);
    }
    return lim;
}

/* engine._NeuronLayer.run over the idle steps k .. end-1: a quiet stretch
 * where no switch is on, else block_step under the held noise and the floor
 * input, each spike to buffer.  Stops at end, before a step when fewer than
 * n pairs of buffer are left, or after a step in which a neuron that drives
 * synapse outputs spikes, returning its number of spikes; else returns 0,
 * or -1 - j as block_step does, with k that step. */
int64_t si_run(si_block *b, int64_t k, int64_t end)
{
    const int64_t n = b->n;
    int64_t n_fired = 0, m = 0;
    int holds = 1;
    for (int64_t j = 0; j < n; j++)
        if (b->v_m[j] > b->c[j].v_th || b->v_n[j] > b->c[j].v_gate)
            holds = 0;
    while (m == 0 && k < end && b->room - n_fired >= n) {
        if (holds) {
            const int64_t e = quiet(b, k, end);
            b->quiet_steps += e - k;
            k = e;
            if (k == end)
                break;
        }
        m = block_step(b, b->held + (k / b->hold - b->first), b->width, b->floor, k, &holds);
        if (m < 0)
            break;
        k++;
        int pulses = 0;
        for (int64_t i = 0; i < m; i++) {
            b->buffer[2 * n_fired] = k;
            b->buffer[2 * n_fired++ + 1] = b->spiking[i];
            pulses |= b->drives[b->spiking[i]];
        }
        m = pulses ? m : 0;
    }
    b->k = k;
    b->n_fired = n_fired;
    return m;
}
