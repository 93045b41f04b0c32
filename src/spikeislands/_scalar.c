/* The neuron and synapse updates of spikeislands in C, expression for
 * expression, so that a run gives the bits of the Python and numpy code
 * they replace: neuron.advance (si_advance), the general step
 * engine._general_step (general_step), and the run of a network, one
 * neuron without synapses included, engine._NeuronLayer.run (si_run): its
 * quiet stretches (engine._QuietStretch.take), its general steps
 * (engine._NeuronBlock.step, block_step) and its synapse layer,
 * engine._SynapseStates, whose step (synapse_step) and pulse starts
 * (start_pulses) take the DPI flows of spikeislands.synapse element by
 * element (the Python code gives every element the bits it has alone) with
 * np.interp, np.logaddexp and np.bincount as numpy computes them; its exp,
 * log and log1p are libm's, as synapse's are on every host.  Each neuron's
 * constants are its engine._step_consts.  si_synapse_step and
 * si_start_pulses export the synapse step and the pulse starts on their own
 * for the tests.  Plain C99 and libm, no Python headers; spikeislands
 * builds it into a shared library on first use (see spikeislands._kernel),
 * and it must be compiled without floating-point contraction
 * (-ffp-contract=off), which would fuse a multiply and an add into one
 * rounding and so change bits.
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
 * constants and islands; the held noise block (a row of width samples per
 * island, column 0 being sample first, each read by hold steps) and the
 * floor input of the synapses (floor, a current per neuron); the state,
 * updated in place; a step's spikes; a run's room (1-based step, neuron)
 * pairs of buffer, of which it writes n_fired, its first step not taken (k)
 * and the count of quiet steps; room for the state (save); with trace not
 * NULL, the rows of _Traces.v (n_trace columns, neuron j's trace_col[j] or
 * none if -1), sampled after every step k with (k + 1) % decim == 0; the
 * quiet level. */
typedef struct {
    const si_consts *c;
    const int64_t *island_of;
    const double *held, *floor;
    double *v_m, *v_n;
    int64_t *spiking;
    double *onsets;
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

/* The synapse layer of a network, engine._SynapseStates, bound once per run
 * to its arrays: the per-output constants, 7 rows of n_out (tau, i_tau,
 * i_pulse, a, c, width, floor); the rising relation of each output's c
 * (rel, a row of n_grid per distinct c, rel_of picking an output's row)
 * over the grid psi; the step ends from an onset step's start (cols + 1)
 * and the ring rows ahead of each row (ring rows of cols); the synapses'
 * post, weight and output (n_syn); the outputs each neuron drives, those
 * of neuron j being pre_out[pre_start[j] .. pre_start[j + 1]]; the state
 * (i, i_start, on and the pulse tables tab_i, tab_q, tab_on, ring rows of
 * n_out, with until), updated in place; the per-neuron input current; room
 * for a pulse start of every output (hit, m, theta, x, first_off, and h,
 * i_tab, q_tab of cols + 1 per output; a step keeps its charges in x); and
 * the counters. */
typedef struct {
    const double *consts, *rel, *psi, *ends;
    const int64_t *rel_of, *ahead, *post, *state_of, *pre_start, *pre_out;
    const double *signw;
    double *i, *i_start, *on, *tab_i, *tab_q, *tab_on;
    int64_t *until;
    double *input;
    int64_t *hit, *m;
    double *theta, *x, *first_off, *h, *i_tab, *q_tab;
    int64_t n_out, n_syn, n_neurons, n_grid, ring, cols;
    int64_t busy_until, at_floor, pulse_steps, rising_solves;
    double dt;
} si_synapses;

/* The constants of one output, a column of consts. */
typedef struct {
    double tau, i_tau, i_pulse, a, c, width, floor;
    const double *rel;
} syn_consts;

static syn_consts output_consts(const si_synapses *s, int64_t j)
{
    const double *c = s->consts;
    const int64_t n = s->n_out;
    syn_consts o = {c[j], c[n + j], c[2 * n + j], c[3 * n + j], c[4 * n + j], c[5 * n + j], c[6 * n + j],
                    s->rel + s->rel_of[j] * s->n_grid};
    return o;
}

/* np.minimum and np.maximum of two doubles: a NaN in either gives NaN. */
static double np_min(double x, double y) { return (x < y || isnan(x)) ? x : y; }
static double np_max(double x, double y) { return (x > y || isnan(x)) ? x : y; }

/* synapse.dpi_decay of one output: returns i1, sets *q to the charge. */
static double decay(double i0, double h, double tau, double fl, double *q)
{
    double i1 = i0 * exp(-h / tau);
    *q = tau * (i0 - i1);
    if (i1 < fl) {
        const double t_floor = tau * log(i0 / fl);
        *q = tau * (i0 - fl) + fl * (h - t_floor);
        i1 = fl;
    }
    return i1;
}

/* np.logaddexp(0.0, x), as numpy computes it. */
static double softplus(double x)
{
    if (x == 0.0)
        return 0.0 + 0.693147180559945309417232121458176568;
    const double tmp = 0.0 - x;
    if (tmp > 0)
        return 0.0 + log1p(exp(-tmp));
    if (tmp <= 0)
        return x + log1p(exp(tmp));
    return tmp;
}

/* np.interp(x, xp, fp) over n > 4 points, xp strictly increasing. */
static double interp(double x, const double *xp, const double *fp, int64_t n)
{
    if (isnan(x))
        return x;
    if (x > xp[n - 1])
        return fp[n - 1];
    if (x < xp[0])
        return fp[0];
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        const int64_t mid = lo + ((hi - lo) >> 1);
        if (x >= xp[mid])
            lo = mid + 1;
        else
            hi = mid;
    }
    const int64_t j = lo - 1;
    if (j == n - 1 || xp[j] == x)
        return fp[j];
    const double slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]);
    double r = slope * (x - xp[j]) + fp[j];
    if (isnan(r)) {
        r = slope * (x - xp[j + 1]) + fp[j + 1];
        if (isnan(r) && fp[j] == fp[j + 1])
            r = fp[j];
    }
    return r;
}

/* synapse._log1p_ratio: log1p(x) / x, continuous at 0. */
static double log1p_ratio(double x)
{
    if (fabs(x) < 1e-4)
        return 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
    return log1p(x) / x;
}

/* The time relation of synapse._falling and its slope in z. */
static double fall_time(double i, double d, double a)
{
    return -log(i) + d / i * log1p_ratio(-a / i);
}

typedef struct {
    int falling;
    double c, d, a, a_pos, i_tau;
} newton_fn;

static double newton_g(const newton_fn *f, double y, double *slope)
{
    if (f->falling) {
        const double i = f->a_pos + exp(-y);
        *slope = (f->i_tau + i) * (i - f->a_pos) / (i * (i - f->a));
        return fall_time(i, f->d, f->a);
    }
    const double sp = softplus(y);
    *slope = f->c + exp(y - sp);
    return f->c * y + sp;
}

/* synapse._newton for one element: NEWTON_BATCH (3) untested iterates,
 * the first that passes the test, else up to 97 more until one does. */
static double newton(const newton_fn *f, double y, double target)
{
    double ys[3];
    int going[3];
    for (int j = 0; j < 3; j++) {
        double slope;
        const double val = newton_g(f, y, &slope);
        const double step = (val - target) / slope;
        y = y - step;
        ys[j] = y;
        going[j] = fabs(step) > 1e-14 * (1.0 + fabs(y));
    }
    for (int j = 0; j < 3; j++)
        if (!going[j])
            return ys[j];
    for (int it = 0; it < 100 - 3; it++) {
        double slope;
        const double val = newton_g(f, y, &slope);
        const double step = (val - target) / slope;
        y = y - step;
        if (!(fabs(step) > 1e-14 * (1.0 + fabs(y))))
            break;
    }
    return y;
}

/* synapse._rising with _rising_start's interpolation in the relation. */
static double rising(double i0, double h, const syn_consts *o, const double *psi, int64_t n_grid, double *q)
{
    const double d = o->i_pulse, a = o->a, c = o->c, tau = o->tau;
    const double psi0 = log(i0) - log(a - i0);
    const double sp0 = softplus(psi0);
    const double target = c * psi0 + sp0 + h / tau;
    const newton_fn f = {0, c, d, a, 0.0, o->i_tau};
    const double psi1 = newton(&f, interp(target, o->rel, psi, n_grid), target);
    const double sp1 = softplus(psi1);
    const double i1 = a * exp(psi1 - sp1);
    *q = tau * (d * (sp1 - sp0) - (i1 - i0));
    return i1;
}

/* synapse._falling. */
static double falling(double i0, double h, const syn_consts *o, double *q)
{
    const double d = o->i_pulse, i_tau = o->i_tau, tau = o->tau, fl = o->floor;
    const double a = d - i_tau;
    const double a_pos = np_max(a, 0.0);
    const newton_fn f = {1, 0.0, d, a, a_pos, i_tau};
    const double t0 = fall_time(i0, d, a);
    const double z0 = -log(i0 - a_pos);
    const double i1 = a_pos + exp(-newton(&f, z0, t0 + h / tau));
    const int can_floor = a_pos < fl;
    const double t_floor = tau * (fall_time(can_floor ? fl : i0, d, a) - t0);
    const int low = can_floor && t_floor <= h;
    const double i_end = low ? fl : i1;
    *q = tau * (-d * log1p((i_end - i0) / (i0 - a)) - (i_end - i0));
    if (low)
        *q = *q + fl * (h - t_floor);
    return i_end;
}

/* engine._SynapseStates._rise of one output: its pulse drive for h seconds
 * from i0 by dpi_flow's regime (dpi_rise's when i0 < a); returns i1 and
 * sets *q to the charge. */
static double rise(double i0, double h, const syn_consts *o, const si_synapses *s, double *q)
{
    *q = 0.0;
    if (!(h > 0.0))
        return i0;
    if (i0 < o->a)
        return rising(i0, h, o, s->psi, s->n_grid, q);
    if (i0 > np_max(o->a, 0.0))
        return falling(i0, h, o, q);
    if (i0 == o->a) {
        *q = i0 * h;
        return i0;
    }
    return i0;
}

/* _SynapseStates.input_current: the per-neuron input of the outputs'
 * charges q, each synapse added in index order, as np.bincount does. */
static void input_current(si_synapses *s, const double *q)
{
    for (int64_t j = 0; j < s->n_neurons; j++)
        s->input[j] = 0.0;
    for (int64_t e = 0; e < s->n_syn; e++)
        s->input[s->post[e]] += s->signw[e] * (q[s->state_of[e]] / s->dt);
}

/* _SynapseStates.step over step k: returns 1 with the step's input current
 * in input, or 0 when every output sits at its floor and no pulse is in
 * flight (the input is then the floor input). */
static int synapse_step(si_synapses *s, int64_t k)
{
    const int64_t n = s->n_out;
    double *q = s->x;
    for (int64_t j = 0; j < n; j++)
        s->i_start[j] = s->i[j];
    if (k < s->busy_until) {
        s->pulse_steps += 1;
        s->at_floor = 0;
        const int64_t r = (k % s->ring) * n;
        for (int64_t j = 0; j < n; j++) {
            const syn_consts o = output_consts(s, j);
            const double flight = k <= s->until[j] ? 1.0 : 0.0;
            const double i = flight != 0.0 ? s->tab_i[r + j] : s->i[j];
            s->on[j] = s->tab_on[r + j] * flight;
            s->i[j] = decay(i, s->dt - s->on[j], o.tau, o.floor, &q[j]);
            q[j] = q[j] + s->tab_q[r + j] * flight;
        }
        input_current(s, q);
        return 1;
    }
    for (int64_t j = 0; j < n; j++)
        s->on[j] = 0.0;
    if (s->at_floor)
        return 0;
    int at_floor = 1;
    for (int64_t j = 0; j < n; j++) {
        const syn_consts o = output_consts(s, j);
        s->i[j] = decay(s->i[j], s->dt, o.tau, o.floor, &q[j]);
        at_floor &= s->i[j] == o.floor;
    }
    s->at_floor = at_floor;
    input_current(s, q);
    return 1;
}

/* _SynapseStates.start_pulses of the n_spiking neurons in spiking, whose
 * spikes start at onsets into step k: each output they drive is taken to
 * its onset and its pulse solved from there to every step end it covers
 * and to its end, each output's columns beyond its pulse's end being those
 * of the end, as the Python code solves them. */
static void start_pulses(si_synapses *s, int64_t k, const int64_t *spiking, const double *onsets, int64_t n_spiking)
{
    const int64_t n = s->n_out, w = s->cols + 1;
    int64_t n_hit = 0;
    int solve = 0;
    for (int64_t a = 0; a < n_spiking; a++) {
        const int64_t j = spiking[a];
        for (int64_t e = s->pre_start[j]; e < s->pre_start[j + 1]; e++) {
            const int64_t out = s->pre_out[e];
            s->hit[n_hit] = out;
            s->theta[n_hit] = onsets[a];
            s->first_off[n_hit] = np_min(s->on[out], onsets[a]);
            s->x[n_hit] = s->i_start[out];
            solve |= s->first_off[n_hit] != 0.0;
            n_hit++;
        }
    }
    if (n_hit == 0)
        return;
    /* To the onset, from the start of the step, under an earlier pulse
     * while it lasts, then undriven. */
    s->rising_solves += solve;
    int64_t m_max = 0;
    for (int64_t p = 0; p < n_hit; p++) {
        const syn_consts o = output_consts(s, s->hit[p]);
        double q;
        if (solve)
            s->x[p] = rise(s->x[p], s->first_off[p], &o, s, &q);
        s->x[p] = decay(s->x[p], s->theta[p] - s->first_off[p], o.tau, o.floor, &q);
        double *h = s->h + p * w;
        int64_t m = 0;
        for (int64_t c = 0; c < w; c++) {
            h[c] = np_min(s->ends[c] - s->theta[p], o.width);
            m += h[c] < o.width;
        }
        s->m[p] = m;
        if (m > m_max)
            m_max = m;
    }
    /* Every step end within the pulse, then its end: one rising solve. */
    s->rising_solves += 1;
    const int64_t cols = m_max + 1;
    int all_in = 1;
    for (int64_t p = 0; p < n_hit; p++) {
        const syn_consts o = output_consts(s, s->hit[p]);
        double *h = s->h + p * w, *i_tab = s->i_tab + p * w, *q_tab = s->q_tab + p * w;
        for (int64_t c = 0; c < cols; c++) {
            if (c <= s->m[p]) {
                i_tab[c] = rise(s->x[p], h[c], &o, s, &q_tab[c]);
            } else {
                i_tab[c] = i_tab[s->m[p]];
                q_tab[c] = q_tab[s->m[p]];
            }
        }
        all_in &= s->m[p] != 0;
    }
    const int64_t *ahead = s->ahead + (k % s->ring) * s->cols;
    for (int64_t p = 0; p < n_hit; p++) {
        const int64_t out = s->hit[p];
        const syn_consts o = output_consts(s, out);
        const double *h = s->h + p * w, *i_tab = s->i_tab + p * w, *q_tab = s->q_tab + p * w;
        /* The onset step ends in its pulse, or (m = 0) after the pulse's end. */
        double end = i_tab[0], q;
        if (!all_in)
            end = decay(end, (s->dt - s->theta[p]) - h[0], o.tau, o.floor, &q);
        s->i[out] = end;
        /* Step k+c is driven from offset h[c-1] to the pulse's end or, all
         * through, to the step's end. */
        for (int64_t c = 1; c < cols; c++) {
            const int64_t cell = ahead[c - 1] * n + out;
            s->tab_i[cell] = i_tab[c];
            s->tab_q[cell] = q_tab[c] - q_tab[c - 1];
            s->tab_on[cell] = np_min(o.width - h[c - 1], s->dt);
        }
        s->until[out] = k + s->m[p];
    }
    if (k + cols > s->busy_until)
        s->busy_until = k + cols;
    s->at_floor = 0;
}

/* The synapse step and the pulse starts on their own, for the tests. */
int64_t si_synapse_step(si_synapses *s, int64_t k) { return synapse_step(s, k); }

void si_start_pulses(si_synapses *s, int64_t k, const int64_t *spiking, const double *onsets, int64_t n_spiking)
{
    start_pulses(s, k, spiking, onsets, n_spiking);
}

/* engine._NeuronLayer.run over the steps k .. end-1 of a network whose
 * synapse layer is s.  A step is idle when no pulse is in flight and every
 * output sits at its floor; idle steps where no switch is on are a quiet
 * stretch.  Every other step is the synapse step, then block_step under the
 * held noise and the synapses' input (their floor input in an idle step),
 * then the start of the pulses of its spikes, which go to buffer.  Stops at
 * end, before a step when fewer than n pairs of buffer are left, or after
 * the first step that leaves neuron j with a state that is not finite,
 * returning -1 - j with k that step and the step's synaptic input in
 * s->input; else returns 0. */
int64_t si_run(si_block *b, si_synapses *s, int64_t k, int64_t end)
{
    const int64_t n = b->n;
    int64_t n_fired = 0;
    int holds = 1;
    for (int64_t j = 0; j < n; j++)
        if (b->v_m[j] > b->c[j].v_th || b->v_n[j] > b->c[j].v_gate)
            holds = 0;
    while (k < end && b->room - n_fired >= n) {
        if (holds && s->at_floor && k >= s->busy_until) {
            const int64_t e = quiet(b, k, end);
            b->quiet_steps += e - k;
            k = e;
            if (k == end)
                break;
        }
        const double *input = synapse_step(s, k) ? s->input : b->floor;
        const int64_t m = block_step(b, b->held + (k / b->hold - b->first), b->width, input, k, &holds);
        if (m < 0) {
            for (int64_t j = 0; j < n && input != s->input; j++)
                s->input[j] = input[j];
            b->k = k;
            b->n_fired = n_fired;
            return m;
        }
        k++;
        for (int64_t i = 0; i < m; i++) {
            b->buffer[2 * n_fired] = k;
            b->buffer[2 * n_fired++ + 1] = b->spiking[i];
        }
        if (m)
            start_pulses(s, k - 1, b->spiking, b->onsets, m);
    }
    b->k = k;
    b->n_fired = n_fired;
    return 0;
}
