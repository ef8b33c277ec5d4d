/* Exact compiled timeline for the batch engine.
 *
 * Transcribes the event loop of repro/memsim/engine.py together with
 * every registered scheme family's policy decisions: drift sampling,
 * ReadDuo-Hybrid's R-to-R+M re-read, the LWT tracker and adaptive
 * conversion controller, Select's differential writes, and every scrub
 * flavour (W=0 sweeps, W=1 rewrite-on-detect with M-sampling, and the
 * renewal-hazard draw of Scrubbing W=1). Decisions run in event order in
 * one pass and draw from the policy's own numpy Generator through numpy's
 * shipped distribution library, so the kernel consumes the random stream
 * exactly as the event engine does (see repro/memsim/fastpath.py).
 *
 * Bit-exactness rules (docs/PERFORMANCE.md):
 *  - all accumulation in IEEE-754 doubles, in the scalar engine's order;
 *  - compiled without -ffast-math and with -ffp-contract=off so no FMA
 *    contraction changes a rounding;
 *  - log10 is the C library's, the one CPython's math.log10 calls (the
 *    sampler's probability path); binomial and uniform draws are numpy's
 *    random_binomial and next_double on the policy's bit generator;
 *  - Python's floor-mod and float floor-division are spelled out;
 *  - int(x) truncation on non-negative doubles is a plain cast;
 *  - the event order (time, seq) is strictly ordered (seq is unique), so
 *    any correct binary heap pops in the same order as Python's heapq.
 *    Two event kinds never have more than one pending event, so they are
 *    registers beside the heap instead of heap entries: the scrub
 *    sweep's next tick and the channel's completion. Each takes its seq
 *    where the event engine pushes it, and the loop runs whichever of
 *    the heap's top and the two registers comes first.
 *
 * Per-line policy state lives in two dense arrays, with no lookup by
 * line. Every line of the trace and of the pre-run state has a slot in
 * `dense`, indexed by its rank among those lines (sorted ascending); each
 * request carries its line's slot. The scrub pointer only moves forward,
 * so a cursor over the sorted lines finds the dense slot of a line it
 * visits. Every other line the pointer visits gets a slot in `win`, in
 * visit order during the first lap; later laps visit the same lines in
 * the same order and reuse those slots. A slot's `ref` (its index across
 * dense then win) is what the lw/tr/surv logs record, in first-insertion
 * order.
 * The run returns an opaque handle; the caller sizes its output arrays
 * from the counters in Out and copies them with export_timeline. A
 * handle passed to the next run_timeline keeps its buffers for it; a
 * caller releases it with free_timeline.
 */

#include <numpy/random/distributions.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RQ_CAP 64 /* per-bank read queue; bounded by num_cores (gated) */
#define DQ_CAP 128 /* channel demand queue; bounded by num_cores */
#define SQ_CAP 72 /* channel scrub queue; bounded by backlog cap (gated) */

enum { EV_CORE = 0, EV_BANK_DONE = 1 };
enum { JOB_NONE = -1, JOB_READ = 0, JOB_WRITE = 1 };
enum {
    ERR_RQ = 2,
    ERR_WAIT = 4,
    ERR_DQ = 5,
    ERR_SQ = 6,
    ERR_ALLOC = 11,
    ERR_PRE = 12 /* a pre-run line without a dense slot */
};

/* Scheme families, one per exact policy type (fastpath.speculation_plan). */
enum {
    FAM_CONST = 0,   /* Ideal, TLC: clean R-reads, no scrub */
    FAM_HYBRID = 1,  /* ReadDuo-Hybrid, M-metric W=0 scrub */
    FAM_SCRUB_W0 = 2,
    FAM_SCRUB_W1 = 3,
    FAM_MMETRIC = 4,
    FAM_LWT = 5,
    FAM_SELECT = 6
};

enum { MODE_R = 0, MODE_M = 1, MODE_RM = 2 };
enum { CAUSE_DEMAND = 0, CAUSE_CONVERSION = 1 };

/* Energy-category and wear-cause ids; first-touch order is replayed into
 * the Python dicts, whose insertion order the run cache serializes. */
enum {
    ECAT_READ = 0,
    ECAT_WRITE = 1,
    ECAT_SCRUB_READ = 2,
    ECAT_SCRUB_WRITE = 3,
    ECAT_FLAGS = 4,
    ECAT_CONVERSION = 5,
    N_ECAT = 6
};
enum { WCAT_DEMAND = 0, WCAT_SCRUB = 1, WCAT_CONVERSION = 2, N_WCAT = 3 };

typedef struct {
    int64_t n_cores;
    const int64_t *core_off; /* n_cores + 1 offsets into ops/lines/gaps */
    const int8_t *ops;
    const int64_t *lines;
    const double *gaps_ns; /* pre-scaled by cycle_ns */
    const int32_t *slots;  /* each request's dense slot */
    int64_t n_slots;
    const int64_t *slot_lines; /* the dense slots' lines, ascending */
    int32_t op_read;
    int32_t family;
    int64_t num_banks;
    int64_t write_queue_depth;
    double cancel_threshold;
    double write_ns;
    double bus_ns;
    double read_ns[3]; /* by mode: R, M, RM */
    int32_t scrub_on;
    int32_t scrub_blocks_channel;
    double scrub_tick_ns;
    int64_t lines_per_scrub_op;
    int64_t total_lines;
    int64_t scrub_backlog_cap;
    double scrub_metric_read_ns;
    double pj_read[3]; /* by mode */
    double pj_scrub_read;
    double pj_per_cell;
    double pj_flag_read;
    double pj_flag_rw;
    int64_t write_cells; /* demand/conversion full-line cells */
    int64_t full_cells;  /* scrub rewrite cells */
    /* BaseDriftPolicy age state */
    double epoch_s;
    double scrub_interval_s;
    int64_t half_lines;
    int64_t footprint_lines;
    double cold_age_s;
    double hot_age_scale_s;
    double min_age_s;
    uint64_t age_seed;
    /* DriftErrorSampler */
    int64_t n_grid;
    const double *xs;
    const double *p_r;
    const double *p_m;
    const double *slope_r;
    const double *slope_m;
    double lo_age;
    double hi_age;
    double neg_p;
    int64_t cells;
    int64_t corr; /* repro.ecc.regimes.CORRECTABLE_ERRORS */
    int64_t det;  /* repro.ecc.regimes.DETECTABLE_ERRORS */
    void *bitgen;
    /* ScrubbingPolicy W=1 renewal model */
    uint64_t surv_seed;
    int64_t n_cdf;
    const double *cdf;
    const double *hazard;
    int64_t max_m;
    /* MMetricPolicy */
    int64_t w_floor;
    /* LwtPolicy / SelectPolicy */
    double sub_len_s;
    int64_t k;
    int64_t s;
    int64_t check_cells;
    int64_t data_cells;
    double change_fraction;
    /* policy dict entries present before the run */
    int64_t n_pre_lw;
    const int64_t *pre_lw_lines;
    const double *pre_lw_vals;
    int64_t n_pre_tr;
    const int64_t *pre_tr_lines;
    const double *pre_tr_vals;
    int64_t n_pre_surv;
    const int64_t *pre_surv_lines;
    const int64_t *pre_surv_vals;
    int32_t tele_on;
    int32_t trace_on;
    /* telemetry histograms: upper-inclusive edges, counts += per value */
    int64_t n_lat_edges;
    const double *lat_edges;
    int64_t *lat_counts;
    int64_t n_depth_edges;
    const double *depth_edges;
    int64_t *depth_counts;
} Params;

/* AdaptiveConversionController fields, read at start, written at end. */
typedef struct {
    int64_t t;
    int64_t step;
    int64_t window_reads;
    int64_t window_total;
    int64_t window_untracked;
    int64_t last_action;
    int64_t stagnant_windows;
    int64_t adjustments;
    int64_t patience;
    double prev_p;
    double improvement_factor;
    int32_t has_prev_p;
    int32_t enabled;
} Conv;

typedef struct {
    int64_t n_reads;
    int64_t n_writes;
    int64_t n_cancelled;
    int64_t n_conversions;
    int64_t n_silent;
    int64_t n_uncorrectable;
    int64_t n_scrub_ops;
    int64_t n_scrub_rewrites;
    int64_t n_scrubs_skipped;
    int64_t seq;
    double total_read_latency;
    double exec_time_ns;
    double energy[N_ECAT];
    int64_t wear[N_WCAT];
    int64_t reads_by_mode[3];
    double lat_sum;
    double depth_sum;
    int64_t n_lat;
    int64_t n_depth;
    int64_t n_rec;
    int64_t n_lw;
    int64_t n_tr;
    int64_t n_surv;
    int32_t ecat_order[N_ECAT];
    int32_t n_ecat;
    int32_t wcat_order[N_WCAT];
    int32_t n_wcat;
    int32_t mode_order[3];
    int32_t n_mode;
    int64_t error;
} Out;

/* Compact tracer record; materialized lazily into dicts on the Python
 * side. kind 0 read: a=core b=depth c=mode line f1=issue f2=start
 * f3=complete; kind 1 write: a=bank c=cause line f1=start f2=complete;
 * kind 2 cancel: a=bank line f1=progress f2=time; kind 3 scrub: a=lines
 * b=rewrites c=skipped f1=time f2=duration. */
typedef struct {
    double f1;
    double f2;
    double f3;
    int64_t line;
    int32_t kind;
    int32_t a;
    int32_t b;
    int32_t c;
} TraceRec;

typedef struct {
    double t;
    int64_t seq;
    int32_t kind;
    int32_t a;
    int64_t b;
} Ev;

typedef struct {
    int64_t line;
    int64_t cells;
    int32_t cause;
    int32_t pad;
} WrJob;

/* A read decision, carried from bank start to channel completion. */
typedef struct {
    int8_t mode;
    int8_t convert;
    int8_t silent;
    int8_t uncorr;
    int8_t flag;
} Dec;

typedef struct {
    int32_t rq_core[RQ_CAP];
    int32_t rq_depth[RQ_CAP];
    int64_t rq_line[RQ_CAP];
    int32_t rq_slot[RQ_CAP];
    double rq_enq[RQ_CAP];
    int32_t rq_head, rq_len;
    WrJob *wq; /* growable ring: conversions are not depth-limited */
    int32_t wq_head, wq_len, wq_cap;
    int32_t waiters[RQ_CAP];
    int32_t wa_head, wa_len;
    double busy_until;
    double job_start;
    int32_t job_kind;
    int32_t jp_core;
    int32_t jp_depth;
    int64_t jp_line; /* read payload line */
    int32_t jp_slot;
    double jp_enq;
    Dec jp_dec;
    WrJob jp_w; /* write payload */
    int64_t token;
} Bank;

typedef struct {
    int32_t core, depth;
    int64_t line;
    int32_t slot;
    double enq, start;
    Dec dec;
} RdPay;

typedef struct {
    double duration;
    int64_t lines;
    int64_t rewrites;
} ScrubOp;

/* Per-line policy state. A flag bit says which dict holds the line. */
enum { F_LW = 1, F_TR = 2, F_SURV = 4, F_BIRTH = 8 };

typedef struct {
    int64_t key; /* the line */
    uint32_t flags;
    int32_t ref; /* index across dense then win, as the logs record it */
    double lw;
    double birth;
    double tr;
    int64_t surv;
} Slot;

typedef struct {
    int64_t *v;
    int64_t len, cap;
} Log;

typedef struct {
    const Params *p;
    Conv *conv;
    Out *o;
    Ev *heap;
    int64_t heap_len, heap_cap;
    Bank *banks;
    int64_t *pos;
    double *finish;
    uint8_t *done;
    int64_t active_cores;
    Slot *dense; /* n_slots, the trace's and pre-run state's lines */
    int64_t dense_cap;
    Log lw_log, tr_log, surv_log; /* slot refs */
    TraceRec *recs;
    int64_t rec_cap;
    binomial_t binom;
    /* The channel's one pending completion: (chan_busy_until, chan_seq)
     * while chan_active. */
    double chan_busy_until;
    int64_t chan_seq;
    int32_t chan_active;
    int32_t chan_last_was_scrub;
    RdPay dq[DQ_CAP];
    int32_t dq_head, dq_len;
    ScrubOp sq[SQ_CAP];
    int32_t sq_head, sq_len;
    /* The scrub sweep: the next tick's (time, seq), the pointer, the
     * first dense line at or after it, and the next win slot of this lap. */
    double scrub_t;
    int64_t scrub_seq;
    int64_t scrub_pointer;
    int64_t cursor, cursor_zero;
    Slot *win; /* the pointer's non-dense lines, in first-lap visit order */
    int64_t win_len, win_cap, win_pos;
    int64_t err;
} Sim;

/* ---------------------------------------------------------- growables */

static int grow(void **buf, int64_t *cap, size_t elem, int64_t need) {
    if (need <= *cap) return 1;
    int64_t n = *cap ? *cap : 256;
    while (n < need) n <<= 1;
    void *grown = realloc(*buf, elem * (size_t)n);
    if (!grown) return 0;
    *buf = grown;
    *cap = n;
    return 1;
}

static void log_push(Sim *s, Log *log, int64_t ref) {
    if (!grow((void **)&log->v, &log->cap, sizeof(int64_t), log->len + 1)) {
        s->err = ERR_ALLOC;
        return;
    }
    log->v[log->len++] = ref;
}

/* ---------------------------------------------------------------- slots */

/* The first dense slot whose line is >= ``line`` (bisect_left). */
static int64_t first_slot_at(const Params *p, int64_t line) {
    int64_t lo = 0, hi = p->n_slots;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (p->slot_lines[mid] < line)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The dense slot of ``line``, or -1. */
static int64_t dense_index(const Params *p, int64_t line) {
    int64_t j = first_slot_at(p, line);
    return j < p->n_slots && p->slot_lines[j] == line ? j : -1;
}

/* The slot behind a log entry. */
static Slot *slot_ref(const Sim *s, int64_t ref) {
    return ref < s->p->n_slots ? &s->dense[ref] : &s->win[ref - s->p->n_slots];
}

/* The slot of the line the scrub pointer visits now: its dense slot when
 * the cursor sits on it, else its win slot, appended on the first lap. */
static Slot *scrub_slot(Sim *s, int64_t line) {
    const Params *p = s->p;
    if (s->cursor < p->n_slots && p->slot_lines[s->cursor] == line)
        return &s->dense[s->cursor++];
    if (s->win_pos < s->win_len) return &s->win[s->win_pos++];
    if (p->n_slots + s->win_len >= INT32_MAX ||
        !grow((void **)&s->win, &s->win_cap, sizeof(Slot), s->win_len + 1)) {
        s->err = ERR_ALLOC;
        return NULL;
    }
    Slot *slot = &s->win[s->win_len];
    slot->key = line;
    slot->flags = 0;
    slot->ref = (int32_t)(p->n_slots + s->win_len);
    s->win_len++;
    s->win_pos++;
    return slot;
}

/* ------------------------------------------------------ policy state */

static uint64_t splitmix64(uint64_t v) {
    v += 0x9E3779B97F4A7C15ULL;
    v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
    v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
    return v ^ (v >> 31);
}

/* ctx.epoch_s - InitialAgeModel.age_of(line), float-op for float-op. */
static double birth_of(const Params *p, int64_t line) {
    double age;
    if (line >= p->footprint_lines) {
        age = p->cold_age_s;
    } else {
        uint64_t h = splitmix64(((uint64_t)line << 1) ^ p->age_seed);
        double u = (double)(h >> 11) / 9007199254740992.0;
        if (u < 1e-12) u = 1e-12;
        if (u > 1.0 - 1e-12) u = 1.0 - 1e-12;
        age = -p->hot_age_scale_s * log1p(-u);
        if (p->min_age_s > age) age = p->min_age_s;
    }
    return p->epoch_s - age;
}

/* BaseDriftPolicy.last_write_of. */
static double last_write_of(const Params *p, Slot *slot) {
    if (slot->flags & F_LW) return slot->lw;
    if (!(slot->flags & F_BIRTH)) {
        slot->birth = birth_of(p, slot->key);
        slot->flags |= F_BIRTH;
    }
    return slot->birth;
}

static void set_lw(Sim *s, Slot *slot, double t) {
    if (!(slot->flags & F_LW)) {
        slot->flags |= F_LW;
        log_push(s, &s->lw_log, slot->ref);
    }
    slot->lw = t;
}

static void set_tr(Sim *s, Slot *slot, double t) {
    if (!(slot->flags & F_TR)) {
        slot->flags |= F_TR;
        log_push(s, &s->tr_log, slot->ref);
    }
    slot->tr = t;
}

static void set_surv(Sim *s, Slot *slot, int64_t m) {
    if (!(slot->flags & F_SURV)) {
        slot->flags |= F_SURV;
        log_push(s, &s->surv_log, slot->ref);
    }
    slot->surv = m;
}

/* ScrubbingPolicy._survived_intervals: the stationary draw is cached on
 * first lookup, exactly as the dict does. */
static int64_t survived_of(Sim *s, Slot *slot) {
    const Params *p = s->p;
    if (slot->flags & F_SURV) return slot->surv;
    uint64_t h = splitmix64(((uint64_t)slot->key << 2) ^ p->surv_seed ^ 0xA5A5ULL);
    double u = (double)(h >> 11) / 9007199254740992.0;
    /* np.searchsorted(cdf, u), side='left', without data-dependent
     * branches: u is uniform, so a branchy bisect mispredicts. */
    int64_t m = 0;
    if (p->n_cdf > 0) {
        const double *base = p->cdf;
        int64_t len = p->n_cdf;
        while (len > 1) {
            int64_t half = len >> 1;
            base += half & -(int64_t)(base[half - 1] < u);
            len -= half;
        }
        m = (base - p->cdf) + (*base < u);
    }
    set_surv(s, slot, m);
    return m;
}

/* BaseDriftPolicy.scrub_pass_age, float-op for float-op. */
static double spa_of(const Params *p, int64_t line, double now_s) {
    int64_t r = (line - p->half_lines) % p->total_lines;
    if (r < 0) r += p->total_lines;
    double frac = (double)r / (double)p->total_lines;
    double cycles = floor((now_s - p->epoch_s) / p->scrub_interval_s - frac);
    double last_pass = p->epoch_s + (cycles + frac) * p->scrub_interval_s;
    if (last_pass > now_s) last_pass -= p->scrub_interval_s;
    return now_s - last_pass;
}

/* int(vx // wx): CPython's float floor division (float_floor_div). */
static int64_t py_floordiv(double vx, double wx) {
    double mod = fmod(vx, wx);
    double div = (vx - mod) / wx;
    double floordiv;
    if (mod) {
        if ((wx < 0) != (mod < 0)) div -= 1.0;
    }
    if (div) {
        floordiv = floor(div);
        if (div - floordiv > 0.5) floordiv += 1.0;
    } else {
        floordiv = copysign(0.0, vx / wx);
    }
    return (int64_t)floordiv;
}

/* ------------------------------------------------------------ sampling */

/* DriftErrorSampler.cell_error_probability: libm log10, then a
 * bisect-lerp over the table slopes (equal to its np.interp). */
static double cell_probability(const Params *p, double age, int metric_m) {
    const double *pt = metric_m ? p->p_m : p->p_r;
    const double *slope = metric_m ? p->slope_m : p->slope_r;
    int64_t n = p->n_grid;
    if (age <= p->lo_age) return pt[0];
    if (age >= p->hi_age) return pt[n - 1];
    double x = log10(age);
    int64_t lo = 0, hi = n; /* bisect_right */
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (x < p->xs[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    int64_t j = lo - 1;
    if (j >= n - 1) return pt[n - 1];
    /* Python's negative index, should log10 ever undershoot. */
    int64_t js = j < 0 ? j + n - 1 : j;
    int64_t jx = j < 0 ? j + n : j;
    return slope[js] * (x - p->xs[jx]) + pt[jx];
}

/* DriftErrorSampler.sample_errors: the probability, then the binomial. */
static int64_t sample_errors(Sim *s, double age, int metric_m) {
    const Params *p = s->p;
    double prob = cell_probability(p, age, metric_m);
    if (prob <= p->neg_p) return 0;
    return random_binomial((bitgen_t *)p->bitgen, prob, p->cells, &s->binom);
}

static void classify_r(const Params *p, Dec *d, int64_t errors) {
    if (errors <= p->corr) {
        d->mode = MODE_R;
    } else if (errors <= p->det) {
        d->mode = MODE_RM;
    } else {
        d->mode = MODE_R;
        d->silent = 1;
    }
}

/* ------------------------------------------------ conversion controller */

static void conv_end_window(Conv *c) {
    double pv = (double)c->window_untracked / (double)c->window_total;
    c->window_total = 0;
    c->window_untracked = 0;
    int64_t action = 0;
    if (pv == 0.0) {
        c->stagnant_windows = 0;
    } else if (c->has_prev_p && pv <= c->prev_p / c->improvement_factor) {
        action = 1;
        c->stagnant_windows = 0;
    } else if (c->has_prev_p && pv >= 0.9 * c->prev_p && pv > 0.05) {
        c->stagnant_windows += 1;
        if (c->stagnant_windows >= c->patience) {
            action = -1;
            c->stagnant_windows = 0;
        }
    } else if (!c->has_prev_p && pv > 0) {
        action = 1;
    }
    int64_t old_t = c->t;
    int64_t t = c->t + action * c->step;
    c->t = t < 0 ? 0 : (t > 100 ? 100 : t);
    if (c->t != old_t) c->adjustments += 1;
    c->last_action = c->t != old_t ? action : 0;
    c->prev_p = pv;
    c->has_prev_p = 1;
}

static int conv_should_convert(Sim *s) {
    Conv *c = s->conv;
    if (!c->enabled || c->t <= 0) return 0;
    if (c->t >= 100) return 1;
    return next_double((bitgen_t *)s->p->bitgen) * 100.0 < (double)c->t;
}

/* ------------------------------------------------------ policy hooks */

/* SchemePolicy.on_read for the family, on the line's dense slot. */
static void on_read(Sim *s, Slot *slot, double now_s, Dec *d) {
    const Params *p = s->p;
    memset(d, 0, sizeof(*d));
    if (p->family == FAM_CONST) return;
    int64_t line = slot->key;
    double age;
    int64_t errors;
    switch (p->family) {
    case FAM_HYBRID:
        age = now_s - last_write_of(p, slot);
        if (age < 0.0) age = 0.0;
        {
            double spa = spa_of(p, line, now_s);
            if (spa < age) age = spa;
        }
        classify_r(p, d, sample_errors(s, age, 0));
        return;
    case FAM_SCRUB_W0:
    case FAM_SCRUB_W1:
        age = now_s - last_write_of(p, slot);
        if (age < 0.0) age = 0.0;
        if (p->family == FAM_SCRUB_W0) {
            double spa = spa_of(p, line, now_s);
            if (spa < age) age = spa;
        } else {
            double renewal = ((double)survived_of(s, slot) + 0.5) * p->scrub_interval_s;
            if (renewal < age) age = renewal;
        }
        errors = sample_errors(s, age, 0);
        d->mode = MODE_R;
        if (errors > p->det)
            d->silent = 1;
        else if (errors > p->corr)
            d->uncorr = 1;
        return;
    case FAM_MMETRIC:
        age = now_s - last_write_of(p, slot);
        if (age < 0.0) age = 0.0;
        errors = sample_errors(s, age, 1);
        d->mode = MODE_M;
        d->uncorr = errors > p->corr;
        return;
    default: { /* FAM_LWT, FAM_SELECT */
        double last = (slot->flags & F_TR) ? slot->tr : last_write_of(p, slot);
        int tracked = py_floordiv(now_s, p->sub_len_s) - py_floordiv(last, p->sub_len_s) < p->k;
        Conv *c = s->conv;
        c->window_total += 1;
        if (!tracked) c->window_untracked += 1;
        if (c->window_total >= c->window_reads) conv_end_window(c);
        age = now_s - last;
        if (age < 0.0) age = 0.0;
        d->flag = 1;
        if (tracked) {
            classify_r(p, d, sample_errors(s, age, 0));
            return;
        }
        errors = sample_errors(s, age, 1);
        d->mode = MODE_RM;
        d->convert = (int8_t)conv_should_convert(s);
        d->uncorr = errors > p->corr;
        return;
    }
    }
}

/* SchemePolicy.on_write: returns cells written, sets *flag_update. */
static int64_t on_write(Sim *s, Slot *slot, double now_s, int *flag_update) {
    const Params *p = s->p;
    *flag_update = 0;
    if (p->family == FAM_SELECT) {
        double last = (slot->flags & F_TR) ? slot->tr : last_write_of(p, slot);
        if (py_floordiv(now_s, p->sub_len_s) - py_floordiv(last, p->sub_len_s) < p->s) {
            int64_t changed = random_binomial((bitgen_t *)p->bitgen, p->change_fraction,
                                              p->data_cells, &s->binom);
            return changed + p->check_cells;
        }
    }
    if (p->family == FAM_SCRUB_W0 || p->family == FAM_SCRUB_W1) set_surv(s, slot, 0);
    set_lw(s, slot, now_s);
    if (p->family == FAM_LWT || p->family == FAM_SELECT) {
        set_tr(s, slot, now_s);
        *flag_update = 1;
    }
    return p->write_cells;
}

/* SchemePolicy.on_scrub: returns whether the line is rewritten. */
static int on_scrub(Sim *s, int64_t line, double now_s) {
    const Params *p = s->p;
    Slot *slot = scrub_slot(s, line);
    if (!slot) return 0;
    double age;
    switch (p->family) {
    case FAM_HYBRID:
    case FAM_SCRUB_W0:
        set_lw(s, slot, now_s);
        return 1;
    case FAM_SCRUB_W1: {
        int64_t m = survived_of(s, slot);
        double hazard = p->hazard[m < p->max_m ? m : p->max_m];
        if (next_double((bitgen_t *)p->bitgen) < hazard) {
            set_surv(s, slot, 0);
            set_lw(s, slot, now_s);
            return 1;
        }
        set_surv(s, slot, m + 1);
        return 0;
    }
    case FAM_MMETRIC:
        age = now_s - last_write_of(p, slot);
        if (age < 0.0) age = 0.0;
        if (sample_errors(s, age, 1) >= p->w_floor) {
            set_lw(s, slot, now_s);
            return 1;
        }
        return 0;
    default: /* FAM_LWT, FAM_SELECT */
        age = now_s - last_write_of(p, slot);
        if (age < 0.0) age = 0.0;
        if (sample_errors(s, age, 1) >= 1) {
            set_lw(s, slot, now_s);
            set_tr(s, slot, now_s);
            return 1;
        }
        return 0;
    }
}

/* ----------------------------------------------------------- primitives */

static void heap_push(Sim *s, double t, int32_t kind, int32_t a, int64_t b) {
    s->o->seq += 1;
    if (s->heap_len >= s->heap_cap &&
        !grow((void **)&s->heap, &s->heap_cap, sizeof(Ev), s->heap_len + 1)) {
        s->err = ERR_ALLOC;
        return;
    }
    int64_t i = s->heap_len++;
    Ev *h = s->heap;
    int64_t seq = s->o->seq;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (h[parent].t < t || (h[parent].t == t && h[parent].seq < seq)) break;
        h[i] = h[parent];
        i = parent;
    }
    h[i].t = t;
    h[i].seq = seq;
    h[i].kind = kind;
    h[i].a = a;
    h[i].b = b;
}

static Ev heap_pop(Sim *s) {
    Ev *h = s->heap;
    Ev top = h[0];
    Ev last = h[--s->heap_len];
    int64_t n = s->heap_len;
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n) break;
        int64_t right = child + 1;
        if (right < n &&
            (h[right].t < h[child].t ||
             (h[right].t == h[child].t && h[right].seq < h[child].seq)))
            child = right;
        if (h[child].t < last.t || (h[child].t == last.t && h[child].seq < last.seq)) {
            h[i] = h[child];
            i = child;
        } else {
            break;
        }
    }
    if (n > 0) h[i] = last;
    return top;
}

/* Record ``key``'s first touch, replayed as dict insertion order. */
static void touch(int32_t *order, int32_t *n, int32_t key) {
    for (int32_t i = 0; i < *n; i++)
        if (order[i] == key) return;
    order[(*n)++] = key;
}

static void add_energy(Out *o, int32_t cat, double pj) {
    touch(o->ecat_order, &o->n_ecat, cat);
    o->energy[cat] += pj;
}

static void add_wear(Out *o, int32_t cat, int64_t cells) {
    touch(o->wcat_order, &o->n_wcat, cat);
    o->wear[cat] += cells;
}

/* Histogram.record's bucket (bisect_left over the sorted, upper-inclusive
 * edges), scanned from the bottom: latencies and depths sit in the first
 * few buckets. */
static inline void hist_count(const double *edges, int64_t n, int64_t *counts, double v) {
    int64_t i = 0;
    while (i < n && edges[i] < v) i++;
    counts[i] += 1;
}

static inline void emit_rec(Sim *s, int32_t kind, int32_t a, int32_t b, int32_t c,
                            int64_t line, double f1, double f2, double f3) {
    if (s->o->n_rec >= s->rec_cap &&
        !grow((void **)&s->recs, &s->rec_cap, sizeof(TraceRec), s->o->n_rec + 1)) {
        s->err = ERR_ALLOC;
        return;
    }
    TraceRec *r = &s->recs[s->o->n_rec++];
    r->f1 = f1;
    r->f2 = f2;
    r->f3 = f3;
    r->line = line;
    r->kind = kind;
    r->a = a;
    r->b = b;
    r->c = c;
}

static void complete_write(Sim *s, const WrJob *w) {
    Out *o = s->o;
    int conv = w->cause == CAUSE_CONVERSION;
    add_energy(o, conv ? ECAT_CONVERSION : ECAT_WRITE, s->p->pj_per_cell * (double)w->cells);
    add_wear(o, conv ? WCAT_CONVERSION : WCAT_DEMAND, w->cells);
}

/* MemorySystemSim._account_scrub over one op's decisions: the two energy
 * accumulators and the wear count are independent, so the
 * reads-then-rewrites order adds the same doubles in the same order. */
static void account_scrub(Sim *s, const ScrubOp *op) {
    Out *o = s->o;
    const Params *p = s->p;
    for (int64_t i = 0; i < op->lines; i++) add_energy(o, ECAT_SCRUB_READ, p->pj_scrub_read);
    for (int64_t i = 0; i < op->rewrites; i++) {
        add_energy(o, ECAT_SCRUB_WRITE, p->pj_per_cell * (double)p->full_cells);
        add_wear(o, WCAT_SCRUB, p->full_cells);
    }
    o->n_scrub_rewrites += op->rewrites;
    o->n_scrub_ops += op->lines;
}

static int wq_reserve(Sim *s, Bank *bank) {
    if (bank->wq_len < bank->wq_cap) return 1;
    int32_t cap = bank->wq_cap ? bank->wq_cap * 2 : 64;
    WrJob *grown = (WrJob *)malloc(sizeof(WrJob) * (size_t)cap);
    if (!grown) {
        s->err = ERR_ALLOC;
        return 0;
    }
    for (int32_t i = 0; i < bank->wq_len; i++)
        grown[i] = bank->wq[(bank->wq_head + i) % bank->wq_cap];
    free(bank->wq);
    bank->wq = grown;
    bank->wq_head = 0;
    bank->wq_cap = cap;
    return 1;
}

static void wq_append(Sim *s, Bank *bank, WrJob w) {
    if (!wq_reserve(s, bank)) return;
    bank->wq[(bank->wq_head + bank->wq_len) % bank->wq_cap] = w;
    bank->wq_len += 1;
}

static void wq_appendleft(Sim *s, Bank *bank, WrJob w) {
    if (!wq_reserve(s, bank)) return;
    bank->wq_head = (bank->wq_head + bank->wq_cap - 1) % bank->wq_cap;
    bank->wq[bank->wq_head] = w;
    bank->wq_len += 1;
}

static WrJob wq_popleft(Bank *bank) {
    WrJob w = bank->wq[bank->wq_head];
    bank->wq_head = (bank->wq_head + 1) % bank->wq_cap;
    bank->wq_len -= 1;
    return w;
}

static void advance_core(Sim *s, int32_t core_id, double now) {
    const Params *p = s->p;
    s->pos[core_id] += 1;
    if (s->finish[core_id] < now) s->finish[core_id] = now;
    int64_t n = p->core_off[core_id + 1] - p->core_off[core_id];
    if (s->pos[core_id] >= n) {
        if (!s->done[core_id]) {
            s->done[core_id] = 1;
            s->active_cores -= 1;
        }
        return;
    }
    heap_push(s, now + p->gaps_ns[p->core_off[core_id] + s->pos[core_id]],
              EV_CORE, core_id, 0);
}

static void try_start_bank(Sim *s, Bank *bank, int64_t bank_id, double now);

/* Issue the write request ``idx`` (an index into the flattened trace). */
static void issue_write(Sim *s, Bank *bank, int64_t bank_id, int32_t core_id,
                        int64_t idx, double now) {
    const Params *p = s->p;
    int flag_update;
    WrJob w = {p->lines[idx],
               on_write(s, &s->dense[p->slots[idx]], p->epoch_s + now * 1e-9, &flag_update),
               CAUSE_DEMAND, 0};
    if (s->err) return;
    wq_append(s, bank, w);
    if (s->err) return;
    if (flag_update) add_energy(s->o, ECAT_FLAGS, p->pj_flag_rw);
    s->o->n_writes += 1;
    advance_core(s, core_id, now);
    if (s->err) return;
    try_start_bank(s, bank, bank_id, now);
}

static void try_start_bank(Sim *s, Bank *bank, int64_t bank_id, double now) {
    const Params *p = s->p;
    if (s->err) return;
    if (bank->busy_until > now || bank->job_kind != JOB_NONE) return;
    if (bank->rq_len > 0) {
        int32_t core_id = bank->rq_core[bank->rq_head];
        int64_t line = bank->rq_line[bank->rq_head];
        int32_t slot = bank->rq_slot[bank->rq_head];
        double enq = bank->rq_enq[bank->rq_head];
        int32_t d = bank->rq_depth[bank->rq_head];
        bank->rq_head = (bank->rq_head + 1) % RQ_CAP;
        bank->rq_len -= 1;
        on_read(s, &s->dense[slot], p->epoch_s + now * 1e-9, &bank->jp_dec);
        bank->job_kind = JOB_READ;
        bank->job_start = now;
        bank->jp_core = core_id;
        bank->jp_line = line;
        bank->jp_slot = slot;
        bank->jp_enq = enq;
        bank->jp_depth = d;
        bank->busy_until = now + p->read_ns[bank->jp_dec.mode];
        bank->token += 1;
        heap_push(s, bank->busy_until, EV_BANK_DONE, (int32_t)bank_id, bank->token);
        return;
    }
    if (bank->wq_len > 0) {
        WrJob w = wq_popleft(bank);
        /* Release one waiter now that a write-queue slot freed. The
         * nested try_start_bank may claim the bank first and then be
         * overwritten below — that replays the scalar engine's exact
         * call sequence, anomaly included. */
        if (bank->wa_len > 0 && bank->wq_len < p->write_queue_depth) {
            int32_t waiter = bank->waiters[bank->wa_head];
            bank->wa_head = (bank->wa_head + 1) % RQ_CAP;
            bank->wa_len -= 1;
            issue_write(s, bank, bank_id, waiter, p->core_off[waiter] + s->pos[waiter], now);
            if (s->err) return;
        }
        bank->job_kind = JOB_WRITE;
        bank->job_start = now;
        bank->jp_w = w;
        bank->busy_until = now + p->write_ns;
        bank->token += 1;
        heap_push(s, bank->busy_until, EV_BANK_DONE, (int32_t)bank_id, bank->token);
    }
}

static void try_start_channel(Sim *s, double now) {
    const Params *p = s->p;
    if (s->chan_active || s->chan_busy_until > now) return;
    int32_t demand = s->dq_len > 0;
    int32_t scrub = s->sq_len > 0;
    if (!demand && !scrub) return;
    int32_t take_scrub = scrub && (!demand || !s->chan_last_was_scrub);
    s->chan_last_was_scrub = take_scrub;
    s->chan_active = 1;
    if (take_scrub)
        s->chan_busy_until = now + s->sq[s->sq_head].duration;
    else
        s->chan_busy_until = now + p->bus_ns;
    s->o->seq += 1; /* the seq the event engine's push takes */
    s->chan_seq = s->o->seq;
}

/* MemorySystemSim._complete_read. */
static void complete_read(Sim *s, const RdPay *pay, double now) {
    const Params *p = s->p;
    Out *o = s->o;
    const Dec *d = &pay->dec;
    o->n_reads += 1;
    touch(o->mode_order, &o->n_mode, d->mode);
    o->reads_by_mode[d->mode] += 1;
    double latency = now - pay->enq;
    o->total_read_latency += latency;
    add_energy(o, ECAT_READ, p->pj_read[d->mode]);
    if (p->tele_on) {
        hist_count(p->lat_edges, p->n_lat_edges, p->lat_counts, latency);
        o->n_lat += 1;
        o->lat_sum += latency;
        if (p->trace_on)
            emit_rec(s, 0, pay->core, pay->depth, d->mode, pay->line, pay->enq,
                     pay->start, now);
    }
    if (d->flag) add_energy(o, ECAT_FLAGS, p->pj_flag_read);
    if (d->silent) o->n_silent += 1;
    if (d->uncorr) o->n_uncorrectable += 1;
    if (d->convert) {
        /* on_conversion_write: a full, tracked write. */
        Slot *slot = &s->dense[pay->slot];
        double now_s = p->epoch_s + now * 1e-9;
        set_lw(s, slot, now_s);
        set_tr(s, slot, now_s);
        int64_t bank_id = pay->line % p->num_banks;
        Bank *bank = &s->banks[bank_id];
        WrJob w = {pay->line, p->write_cells, CAUSE_CONVERSION, 0};
        wq_append(s, bank, w);
        if (s->err) return;
        o->n_conversions += 1;
        try_start_bank(s, bank, bank_id, now);
        if (s->err) return;
    }
    advance_core(s, pay->core, now);
}

/* One scrub operation at the register's time; ends by moving the
 * register to the next tick, with the seq the event engine's push takes. */
static void scrub_tick(Sim *s) {
    const Params *p = s->p;
    Out *o = s->o;
    double now = s->scrub_t;
    double now_s = p->epoch_s + now * 1e-9;
    ScrubOp op = {0.0, p->lines_per_scrub_op, 0};
    for (int64_t i = 0; i < p->lines_per_scrub_op; i++) {
        int64_t line = s->scrub_pointer;
        s->scrub_pointer = (s->scrub_pointer + 1) % p->total_lines;
        if (on_scrub(s, line, now_s)) {
            op.rewrites += 1;
            op.duration += p->write_ns;
        }
        if (s->err) return;
        if (s->scrub_pointer == 0) s->cursor = s->cursor_zero;
        if (s->scrub_pointer == p->half_lines) s->win_pos = 0; /* a lap ends */
    }
    op.duration += p->scrub_metric_read_ns;
    int32_t skipped = 0;
    if (p->scrub_blocks_channel) {
        if (s->sq_len >= p->scrub_backlog_cap) {
            o->n_scrubs_skipped += op.lines;
            skipped = 1;
        } else {
            if (s->sq_len >= SQ_CAP) {
                s->err = ERR_SQ;
                return;
            }
            s->sq[(s->sq_head + s->sq_len) % SQ_CAP] = op;
            s->sq_len += 1;
            try_start_channel(s, now);
        }
    } else {
        account_scrub(s, &op);
    }
    if (p->trace_on)
        emit_rec(s, 3, (int32_t)op.lines, (int32_t)op.rewrites, skipped, 0, now,
                 op.duration, 0.0);
    o->seq += 1;
    s->scrub_seq = o->seq;
    s->scrub_t = now + p->scrub_tick_ns;
}

static void on_core(Sim *s, int32_t core_id, double now) {
    const Params *p = s->p;
    Out *o = s->o;
    int64_t idx = p->core_off[core_id] + s->pos[core_id];
    int64_t line = p->lines[idx];
    int64_t bank_id = line % p->num_banks;
    Bank *bank = &s->banks[bank_id];
    if (p->ops[idx] != p->op_read) {
        if (bank->wq_len >= p->write_queue_depth) {
            if (bank->wa_len >= RQ_CAP) {
                s->err = ERR_WAIT;
                return;
            }
            bank->waiters[(bank->wa_head + bank->wa_len) % RQ_CAP] = core_id;
            bank->wa_len += 1;
        } else {
            issue_write(s, bank, bank_id, core_id, idx, now);
        }
        return;
    }
    if (bank->job_kind == JOB_WRITE && bank->busy_until > now && p->write_ns > 0.0) {
        double progress = 1.0 - (bank->busy_until - now) / p->write_ns;
        if (progress < p->cancel_threshold) {
            WrJob w = bank->jp_w;
            wq_appendleft(s, bank, w);
            if (s->err) return;
            bank->token += 1;
            bank->busy_until = now;
            bank->job_kind = JOB_NONE;
            o->n_cancelled += 1;
            double pclip = progress > 0.0 ? progress : 0.0;
            double wasted = (double)w.cells * pclip;
            add_energy(o, ECAT_WRITE, p->pj_per_cell * (double)(int64_t)wasted);
            if (p->trace_on) emit_rec(s, 2, (int32_t)bank_id, 0, 0, w.line, pclip, now, 0.0);
        }
    }
    int32_t d = bank->rq_len;
    if (p->tele_on) {
        hist_count(p->depth_edges, p->n_depth_edges, p->depth_counts, (double)d);
        o->n_depth += 1;
        o->depth_sum += (double)d;
    }
    if (bank->rq_len >= RQ_CAP) {
        s->err = ERR_RQ;
        return;
    }
    int32_t tail = (bank->rq_head + bank->rq_len) % RQ_CAP;
    bank->rq_core[tail] = core_id;
    bank->rq_line[tail] = line;
    bank->rq_slot[tail] = p->slots[idx];
    bank->rq_enq[tail] = now;
    bank->rq_depth[tail] = d;
    bank->rq_len += 1;
    try_start_bank(s, bank, bank_id, now);
}

/* The dict entries from before the run, each in its line's dense slot. */
static int preload(Sim *s) {
    const Params *p = s->p;
    for (int64_t i = 0; i < p->n_pre_lw; i++) {
        int64_t j = dense_index(p, p->pre_lw_lines[i]);
        if (j < 0) return 0;
        set_lw(s, &s->dense[j], p->pre_lw_vals[i]);
    }
    for (int64_t i = 0; i < p->n_pre_tr; i++) {
        int64_t j = dense_index(p, p->pre_tr_lines[i]);
        if (j < 0) return 0;
        set_tr(s, &s->dense[j], p->pre_tr_vals[i]);
    }
    for (int64_t i = 0; i < p->n_pre_surv; i++) {
        int64_t j = dense_index(p, p->pre_surv_lines[i]);
        if (j < 0) return 0;
        set_surv(s, &s->dense[j], p->pre_surv_vals[i]);
    }
    return 1;
}

/* -------------------------------------------------------------- the API */

void free_timeline(Sim *s) {
    if (!s) return;
    free(s->heap);
    free(s->dense);
    free(s->win);
    free(s->lw_log.v);
    free(s->tr_log.v);
    free(s->surv_log.v);
    free(s->recs);
    free(s);
}

/* Clear ``s`` for a new run, keeping its growable buffers: a thread that
 * runs unit after unit reuses them instead of faulting in fresh pages. */
static void reset(Sim *s) {
    Sim keep = *s;
    memset(s, 0, sizeof(*s));
    s->heap = keep.heap;
    s->heap_cap = keep.heap_cap;
    s->dense = keep.dense;
    s->dense_cap = keep.dense_cap;
    s->win = keep.win;
    s->win_cap = keep.win_cap;
    s->lw_log.v = keep.lw_log.v;
    s->lw_log.cap = keep.lw_log.cap;
    s->tr_log.v = keep.tr_log.v;
    s->tr_log.cap = keep.tr_log.cap;
    s->surv_log.v = keep.surv_log.v;
    s->surv_log.cap = keep.surv_log.cap;
    s->recs = keep.recs;
    s->rec_cap = keep.rec_cap;
}

/* MemorySystemSim._handle_channel_done at the channel register's time. */
static void channel_done(Sim *s) {
    double now = s->chan_busy_until;
    s->chan_active = 0;
    if (s->chan_last_was_scrub) {
        ScrubOp op = s->sq[s->sq_head];
        s->sq_head = (s->sq_head + 1) % SQ_CAP;
        s->sq_len -= 1;
        account_scrub(s, &op);
    } else {
        RdPay pay = s->dq[s->dq_head];
        s->dq_head = (s->dq_head + 1) % DQ_CAP;
        s->dq_len -= 1;
        complete_read(s, &pay, now);
    }
    try_start_channel(s, now);
}

/* The heap's next event: a core's request or a bank completion. */
static void heap_event(Sim *s) {
    const Params *p = s->p;
    Ev ev = heap_pop(s);
    double now = ev.t;
    if (ev.kind == EV_CORE) {
        on_core(s, ev.a, now);
        return;
    }
    Bank *bank = &s->banks[ev.a];
    if (ev.b != bank->token || bank->job_kind == JOB_NONE) return;
    int32_t jkind = bank->job_kind;
    bank->job_kind = JOB_NONE;
    if (jkind == JOB_READ) {
        if (s->dq_len >= DQ_CAP) {
            s->err = ERR_DQ;
            return;
        }
        RdPay *pay = &s->dq[(s->dq_head + s->dq_len) % DQ_CAP];
        pay->core = bank->jp_core;
        pay->depth = bank->jp_depth;
        pay->line = bank->jp_line;
        pay->slot = bank->jp_slot;
        pay->enq = bank->jp_enq;
        pay->start = bank->job_start;
        pay->dec = bank->jp_dec;
        s->dq_len += 1;
        try_start_channel(s, now);
    } else {
        complete_write(s, &bank->jp_w);
        if (p->trace_on)
            emit_rec(s, 1, ev.a, 0, bank->jp_w.cause, bank->jp_w.line, bank->job_start, now,
                     0.0);
    }
    try_start_bank(s, bank, ev.a, now);
}

/* (t1, q1) < (t2, q2): the event engine's heap order. */
static inline int before(double t1, int64_t q1, double t2, int64_t q2) {
    return t1 < t2 || (t1 == t2 && q1 < q2);
}

static void run(Sim *s) {
    const Params *p = s->p;
    Out *o = s->o;
    if (!s->banks || !s->pos || !s->finish || !s->done || p->n_slots >= INT32_MAX ||
        !grow((void **)&s->dense, &s->dense_cap, sizeof(Slot), p->n_slots) ||
        !grow((void **)&s->heap, &s->heap_cap, sizeof(Ev), 256) ||
        /* about one record per request; growing from small costs more */
        (p->trace_on && !grow((void **)&s->recs, &s->rec_cap, sizeof(TraceRec),
                              p->core_off[p->n_cores] + 1024))) {
        s->err = ERR_ALLOC;
        return;
    }
    for (int64_t i = 0; i < p->n_slots; i++) {
        Slot *slot = &s->dense[i];
        slot->key = p->slot_lines[i];
        slot->flags = 0;
        slot->ref = (int32_t)i;
    }
    for (int64_t i = 0; i < p->num_banks; i++) s->banks[i].job_kind = JOB_NONE;
    if (!preload(s)) {
        if (!s->err) s->err = ERR_PRE;
        return;
    }
    s->scrub_pointer = p->half_lines;
    s->cursor = first_slot_at(p, p->half_lines);
    s->cursor_zero = first_slot_at(p, 0);

    for (int64_t c = 0; c < p->n_cores; c++) {
        if (p->core_off[c + 1] == p->core_off[c])
            s->done[c] = 1;
        else
            s->active_cores += 1;
    }
    for (int64_t c = 0; c < p->n_cores; c++)
        if (!s->done[c]) heap_push(s, p->gaps_ns[p->core_off[c]], EV_CORE, (int32_t)c, 0);
    if (p->scrub_on) {
        o->seq += 1;
        s->scrub_seq = o->seq;
        s->scrub_t = p->scrub_tick_ns;
    }

    /* Three event sources, each in (time, seq) order: the heap (core
     * requests, bank completions), the channel register and the scrub
     * register. The earliest of their heads is the event engine's next
     * heap pop. */
    while (s->active_cores > 0 && !s->err) {
        int have = s->heap_len > 0;
        double t = have ? s->heap[0].t : 0.0;
        int64_t q = have ? s->heap[0].seq : 0;
        int chan = s->chan_active && (!have || before(s->chan_busy_until, s->chan_seq, t, q));
        if (chan) {
            t = s->chan_busy_until;
            q = s->chan_seq;
            have = 1;
        }
        if (p->scrub_on && (!have || before(s->scrub_t, s->scrub_seq, t, q))) {
            scrub_tick(s);
        } else if (chan) {
            channel_done(s);
        } else if (have) {
            heap_event(s);
        } else {
            break;
        }
    }
    if (!s->err) {
        /* Flush pending writes exactly as the scalar engine does. */
        for (int64_t i = 0; i < p->num_banks; i++) {
            Bank *bank = &s->banks[i];
            if (bank->job_kind == JOB_WRITE) {
                complete_write(s, &bank->jp_w);
                bank->job_kind = JOB_NONE;
            }
            while (bank->wq_len > 0) {
                WrJob w = wq_popleft(bank);
                complete_write(s, &w);
            }
        }
        double m = 0.0;
        for (int64_t c = 0; c < p->n_cores; c++)
            if (s->finish[c] > m) m = s->finish[c];
        o->exec_time_ns = m;
        o->n_lw = s->lw_log.len;
        o->n_tr = s->tr_log.len;
        o->n_surv = s->surv_log.len;
    }
}

/* Run the whole timeline on ``reuse`` (a handle of an earlier run, whose
 * buffers it keeps) or on a new handle. Returns the handle (NULL only when
 * a new handle cannot be allocated); ``o->error`` is non-zero on failure.
 * The conversion controller ``conv`` is updated in place. The handle
 * stays valid for export_timeline until the next run on it. */
Sim *run_timeline(const Params *p, Conv *conv, Out *o, Sim *reuse) {
    memset(o, 0, sizeof(*o));
    Sim *s = reuse;
    if (s) {
        reset(s);
    } else if (!(s = (Sim *)calloc(1, sizeof(Sim)))) {
        o->error = ERR_ALLOC;
        return NULL;
    }
    s->p = p;
    s->conv = conv;
    s->o = o;
    s->banks = (Bank *)calloc((size_t)p->num_banks, sizeof(Bank));
    s->pos = (int64_t *)calloc((size_t)p->n_cores, sizeof(int64_t));
    s->finish = (double *)calloc((size_t)p->n_cores, sizeof(double));
    s->done = (uint8_t *)calloc((size_t)p->n_cores, sizeof(uint8_t));
    run(s);
    if (s->banks)
        for (int64_t i = 0; i < p->num_banks; i++) free(s->banks[i].wq);
    free(s->banks);
    free(s->pos);
    free(s->finish);
    free(s->done);
    s->banks = NULL;
    s->pos = NULL;
    s->finish = NULL;
    s->done = NULL;
    o->error = s->err;
    return s;
}

/* Copy the run's buffers out. Each array must hold the count Out
 * reports; the per-line dict entries come in first-insertion order. */
void export_timeline(const Sim *s, TraceRec *recs, int64_t *lw_lines, double *lw_vals,
                     int64_t *tr_lines, double *tr_vals, int64_t *surv_lines,
                     int64_t *surv_vals) {
    const Out *o = s->o;
    if (o->n_rec) memcpy(recs, s->recs, sizeof(TraceRec) * (size_t)o->n_rec);
    for (int64_t i = 0; i < s->lw_log.len; i++) {
        const Slot *slot = slot_ref(s, s->lw_log.v[i]);
        lw_lines[i] = slot->key;
        lw_vals[i] = slot->lw;
    }
    for (int64_t i = 0; i < s->tr_log.len; i++) {
        const Slot *slot = slot_ref(s, s->tr_log.v[i]);
        tr_lines[i] = slot->key;
        tr_vals[i] = slot->tr;
    }
    for (int64_t i = 0; i < s->surv_log.len; i++) {
        const Slot *slot = slot_ref(s, s->surv_log.v[i]);
        surv_lines[i] = slot->key;
        surv_vals[i] = slot->surv;
    }
}

/* The kernel's per-cell error probability over an array of ages, from
 * the sampler fields of ``p`` (for the contract test against
 * DriftErrorSampler.cell_error_probability). */
void kernel_probability(const Params *p, int32_t metric_m, const double *ages, double *out,
                        int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = cell_probability(p, ages[i], metric_m);
}
