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
 *  - log10 is numpy's own double loop (the one np.log10 dispatches to at
 *    run time), binomial and uniform draws are numpy's random_binomial
 *    and next_double on the policy's bit generator;
 *  - Python's floor-mod and float floor-division are spelled out;
 *  - int(x) truncation on non-negative doubles is a plain cast;
 *  - the heap key (time, seq) is strictly ordered (seq is unique), so
 *    any correct binary heap pops in the same order as Python's heapq.
 *
 * Per-line policy state lives in one open-addressing map keyed by line,
 * sized by the lines the run touches (trace footprint plus scrub visits).
 * The run returns an opaque handle; the caller sizes its output arrays
 * from the counters in Out, copies them with export_timeline and releases
 * the handle with free_timeline.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#define NO_IMPORT_ARRAY
#define NO_IMPORT_UFUNC
#include <numpy/ndarraytypes.h>
#include <numpy/ufuncobject.h>
#include <numpy/random/distributions.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RQ_CAP 64 /* per-bank read queue; bounded by num_cores (gated) */
#define DQ_CAP 128 /* channel demand queue; bounded by num_cores */
#define SQ_CAP 72 /* channel scrub queue; bounded by backlog cap (gated) */

enum { EV_CORE = 0, EV_BANK_DONE = 1, EV_SCRUB = 2, EV_CHANNEL_DONE = 3 };
enum { JOB_NONE = -1, JOB_READ = 0, JOB_WRITE = 1 };
enum {
    ERR_RQ = 2,
    ERR_WAIT = 4,
    ERR_DQ = 5,
    ERR_SQ = 6,
    ERR_ALLOC = 11
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
    void *log10_fn;
    void *log10_data;
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
    double jp_enq;
    Dec jp_dec;
    WrJob jp_w; /* write payload */
    int64_t token;
} Bank;

typedef struct {
    int32_t core, depth;
    int64_t line;
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
    int64_t key;
    uint32_t flags;
    int32_t pad;
    double lw;
    double birth;
    double tr;
    int64_t surv;
} Slot;

typedef struct {
    Slot *slots;
    int64_t cap, mask, used;
} Map;

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
    Map map;
    Log lw_log, tr_log, surv_log;
    TraceRec *recs;
    int64_t rec_cap;
    binomial_t binom;
    double chan_busy_until;
    int64_t chan_token;
    int32_t chan_active;
    int32_t chan_last_was_scrub;
    RdPay dq[DQ_CAP];
    int32_t dq_head, dq_len;
    ScrubOp sq[SQ_CAP];
    int32_t sq_head, sq_len;
    int64_t scrub_pointer;
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

static void log_push(Sim *s, Log *log, int64_t line) {
    if (!grow((void **)&log->v, &log->cap, sizeof(int64_t), log->len + 1)) {
        s->err = ERR_ALLOC;
        return;
    }
    log->v[log->len++] = line;
}

/* ------------------------------------------------------------------ map */

static uint64_t map_hash(int64_t key) {
    uint64_t v = (uint64_t)key;
    v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
    v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
    return v ^ (v >> 31);
}

static int map_alloc(Map *m, int64_t cap) {
    m->slots = (Slot *)malloc(sizeof(Slot) * (size_t)cap);
    if (!m->slots) return 0;
    for (int64_t i = 0; i < cap; i++) m->slots[i].key = -1;
    m->cap = cap;
    m->mask = cap - 1;
    m->used = 0;
    return 1;
}

static int map_grow(Map *m) {
    Map old = *m;
    if (!map_alloc(m, old.cap << 1)) {
        *m = old;
        return 0;
    }
    for (int64_t i = 0; i < old.cap; i++) {
        if (old.slots[i].key == -1) continue;
        uint64_t j = map_hash(old.slots[i].key) & (uint64_t)m->mask;
        while (m->slots[j].key != -1) j = (j + 1) & (uint64_t)m->mask;
        m->slots[j] = old.slots[i];
    }
    m->used = old.used;
    free(old.slots);
    return 1;
}

/* The slot of ``line``, inserted empty on first touch. The pointer is
 * valid until the next slot_of call. */
static Slot *slot_of(Sim *s, int64_t line) {
    Map *m = &s->map;
    uint64_t i = map_hash(line) & (uint64_t)m->mask;
    for (;;) {
        Slot *slot = &m->slots[i];
        if (slot->key == line) return slot;
        if (slot->key == -1) break;
        i = (i + 1) & (uint64_t)m->mask;
    }
    if ((m->used + 1) * 10 >= m->cap * 7) {
        if (!map_grow(m)) {
            s->err = ERR_ALLOC;
            return NULL;
        }
        i = map_hash(line) & (uint64_t)m->mask;
        while (m->slots[i].key != -1) i = (i + 1) & (uint64_t)m->mask;
    }
    Slot *slot = &m->slots[i];
    memset(slot, 0, sizeof(*slot));
    slot->key = line;
    m->used++;
    return slot;
}

static Slot *slot_find(const Map *m, int64_t line) {
    uint64_t i = map_hash(line) & (uint64_t)m->mask;
    for (;;) {
        Slot *slot = &m->slots[i];
        if (slot->key == line) return slot;
        if (slot->key == -1) return NULL;
        i = (i + 1) & (uint64_t)m->mask;
    }
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
        log_push(s, &s->lw_log, slot->key);
    }
    slot->lw = t;
}

static void set_tr(Sim *s, Slot *slot, double t) {
    if (!(slot->flags & F_TR)) {
        slot->flags |= F_TR;
        log_push(s, &s->tr_log, slot->key);
    }
    slot->tr = t;
}

static void set_surv(Sim *s, Slot *slot, int64_t m) {
    if (!(slot->flags & F_SURV)) {
        slot->flags |= F_SURV;
        log_push(s, &s->surv_log, slot->key);
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
    /* np.searchsorted(cdf, u), side='left' */
    int64_t lo = 0, hi = p->n_cdf;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (p->cdf[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    set_surv(s, slot, lo);
    return lo;
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

typedef void (*LoopFn)(char **, npy_intp const *, npy_intp const *, void *);

/* np.log10 on one double, through numpy's own inner loop. */
static double np_log10(void *fn, void *data, double x) {
    double out;
    char *args[2] = {(char *)&x, (char *)&out};
    npy_intp dims[1] = {1};
    npy_intp steps[2] = {sizeof(double), sizeof(double)};
    ((LoopFn)fn)(args, dims, steps, data);
    return out;
}

/* DriftErrorSampler.sample_errors: bisect-lerp probability (equal to its
 * np.interp), then the binomial draw. */
static int64_t sample_errors(Sim *s, double age, int metric_m) {
    const Params *p = s->p;
    const double *pt = metric_m ? p->p_m : p->p_r;
    const double *slope = metric_m ? p->slope_m : p->slope_r;
    int64_t n = p->n_grid;
    double prob;
    if (age <= p->lo_age) {
        prob = pt[0];
    } else if (age >= p->hi_age) {
        prob = pt[n - 1];
    } else {
        double x = np_log10(p->log10_fn, p->log10_data, age);
        int64_t lo = 0, hi = n; /* bisect_right */
        while (lo < hi) {
            int64_t mid = (lo + hi) >> 1;
            if (x < p->xs[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        int64_t j = lo - 1;
        if (j >= n - 1) {
            prob = pt[n - 1];
        } else {
            /* Python's negative index, should log10 ever undershoot. */
            int64_t js = j < 0 ? j + n - 1 : j;
            int64_t jx = j < 0 ? j + n : j;
            prob = slope[js] * (x - p->xs[jx]) + pt[jx];
        }
    }
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

/* SchemePolicy.on_read for the family; NULL slot means an alloc error. */
static void on_read(Sim *s, int64_t line, double now_s, Dec *d) {
    const Params *p = s->p;
    memset(d, 0, sizeof(*d));
    if (p->family == FAM_CONST) return;
    Slot *slot = slot_of(s, line);
    if (!slot) return;
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
static int64_t on_write(Sim *s, int64_t line, double now_s, int *flag_update) {
    const Params *p = s->p;
    *flag_update = 0;
    Slot *slot = slot_of(s, line);
    if (!slot) return 0;
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
    Slot *slot = slot_of(s, line);
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

static void issue_write(Sim *s, Bank *bank, int64_t bank_id, int32_t core_id,
                        int64_t line, double now) {
    const Params *p = s->p;
    int flag_update;
    WrJob w = {line, on_write(s, line, p->epoch_s + now * 1e-9, &flag_update),
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
        double enq = bank->rq_enq[bank->rq_head];
        int32_t d = bank->rq_depth[bank->rq_head];
        bank->rq_head = (bank->rq_head + 1) % RQ_CAP;
        bank->rq_len -= 1;
        on_read(s, line, p->epoch_s + now * 1e-9, &bank->jp_dec);
        if (s->err) return;
        bank->job_kind = JOB_READ;
        bank->job_start = now;
        bank->jp_core = core_id;
        bank->jp_line = line;
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
            int64_t wl = p->lines[p->core_off[waiter] + s->pos[waiter]];
            issue_write(s, bank, bank_id, waiter, wl, now);
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
    s->chan_token += 1;
    if (take_scrub)
        s->chan_busy_until = now + s->sq[s->sq_head].duration;
    else
        s->chan_busy_until = now + p->bus_ns;
    heap_push(s, s->chan_busy_until, EV_CHANNEL_DONE, 0, s->chan_token);
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
        Slot *slot = slot_of(s, pay->line);
        if (!slot) return;
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

static void scrub_tick(Sim *s, double now) {
    const Params *p = s->p;
    Out *o = s->o;
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
    heap_push(s, now + p->scrub_tick_ns, EV_SCRUB, 0, 0);
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
            issue_write(s, bank, bank_id, core_id, line, now);
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
    bank->rq_enq[tail] = now;
    bank->rq_depth[tail] = d;
    bank->rq_len += 1;
    try_start_bank(s, bank, bank_id, now);
}

static int preload(Sim *s) {
    const Params *p = s->p;
    for (int64_t i = 0; i < p->n_pre_lw; i++) {
        Slot *slot = slot_of(s, p->pre_lw_lines[i]);
        if (!slot) return 0;
        set_lw(s, slot, p->pre_lw_vals[i]);
    }
    for (int64_t i = 0; i < p->n_pre_tr; i++) {
        Slot *slot = slot_of(s, p->pre_tr_lines[i]);
        if (!slot) return 0;
        set_tr(s, slot, p->pre_tr_vals[i]);
    }
    for (int64_t i = 0; i < p->n_pre_surv; i++) {
        Slot *slot = slot_of(s, p->pre_surv_lines[i]);
        if (!slot) return 0;
        set_surv(s, slot, p->pre_surv_vals[i]);
    }
    return !s->err;
}

/* -------------------------------------------------------------- the API */

void free_timeline(Sim *s) {
    if (!s) return;
    if (s->banks)
        for (int64_t i = 0; i < s->p->num_banks; i++) free(s->banks[i].wq);
    free(s->heap);
    free(s->banks);
    free(s->pos);
    free(s->finish);
    free(s->done);
    free(s->map.slots);
    free(s->lw_log.v);
    free(s->tr_log.v);
    free(s->surv_log.v);
    free(s->recs);
    free(s);
}

/* Run the whole timeline. Returns the handle (NULL only when the handle
 * itself cannot be allocated); ``o->error`` is non-zero on failure. The
 * conversion controller ``conv`` is updated in place. */
Sim *run_timeline(const Params *p, Conv *conv, Out *o) {
    memset(o, 0, sizeof(*o));
    Sim *s = (Sim *)calloc(1, sizeof(Sim));
    if (!s) {
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
    if (!s->banks || !s->pos || !s->finish || !s->done ||
        !grow((void **)&s->heap, &s->heap_cap, sizeof(Ev), 256) ||
        /* about one record per request; growing from small costs more */
        (p->trace_on && !grow((void **)&s->recs, &s->rec_cap, sizeof(TraceRec),
                              p->core_off[p->n_cores] + 1024)) ||
        !map_alloc(&s->map, 1024)) {
        o->error = ERR_ALLOC;
        return s;
    }
    for (int64_t i = 0; i < p->num_banks; i++) s->banks[i].job_kind = JOB_NONE;
    if (!preload(s)) {
        o->error = ERR_ALLOC;
        return s;
    }
    s->scrub_pointer = p->total_lines / 2;

    for (int64_t c = 0; c < p->n_cores; c++) {
        if (p->core_off[c + 1] == p->core_off[c])
            s->done[c] = 1;
        else
            s->active_cores += 1;
    }
    for (int64_t c = 0; c < p->n_cores; c++)
        if (!s->done[c]) heap_push(s, p->gaps_ns[p->core_off[c]], EV_CORE, (int32_t)c, 0);
    if (p->scrub_on) heap_push(s, p->scrub_tick_ns, EV_SCRUB, 0, 0);

    while (s->heap_len > 0 && s->active_cores > 0 && !s->err) {
        Ev ev = heap_pop(s);
        double now = ev.t;
        if (ev.kind == EV_CORE) {
            on_core(s, ev.a, now);
        } else if (ev.kind == EV_BANK_DONE) {
            Bank *bank = &s->banks[ev.a];
            if (ev.b != bank->token || bank->job_kind == JOB_NONE) continue;
            int32_t jkind = bank->job_kind;
            bank->job_kind = JOB_NONE;
            if (jkind == JOB_READ) {
                if (s->dq_len >= DQ_CAP) {
                    s->err = ERR_DQ;
                    break;
                }
                RdPay *pay = &s->dq[(s->dq_head + s->dq_len) % DQ_CAP];
                pay->core = bank->jp_core;
                pay->depth = bank->jp_depth;
                pay->line = bank->jp_line;
                pay->enq = bank->jp_enq;
                pay->start = bank->job_start;
                pay->dec = bank->jp_dec;
                s->dq_len += 1;
                try_start_channel(s, now);
            } else {
                complete_write(s, &bank->jp_w);
                if (p->trace_on)
                    emit_rec(s, 1, ev.a, 0, bank->jp_w.cause, bank->jp_w.line,
                             bank->job_start, now, 0.0);
            }
            try_start_bank(s, bank, ev.a, now);
        } else if (ev.kind == EV_CHANNEL_DONE) {
            if (ev.b != s->chan_token || !s->chan_active) continue;
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
        } else {
            scrub_tick(s, now);
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
        lw_lines[i] = s->lw_log.v[i];
        lw_vals[i] = slot_find(&s->map, lw_lines[i])->lw;
    }
    for (int64_t i = 0; i < s->tr_log.len; i++) {
        tr_lines[i] = s->tr_log.v[i];
        tr_vals[i] = slot_find(&s->map, tr_lines[i])->tr;
    }
    for (int64_t i = 0; i < s->surv_log.len; i++) {
        surv_lines[i] = s->surv_log.v[i];
        surv_vals[i] = slot_find(&s->map, surv_lines[i])->surv;
    }
}

/* The inner loop and its data pointer of ``ufunc`` for type signature
 * ``index`` (``ufunc.types.index(...)``); non-zero when out of range. */
int64_t ufunc_loop(PyObject *ufunc, int64_t index, void **fn, void **data) {
    PyUFuncObject *u = (PyUFuncObject *)ufunc;
    if (index < 0 || index >= u->ntypes || !u->functions) return 1;
    *fn = (void *)u->functions[index];
    *data = u->data ? u->data[index] : NULL;
    return 0;
}

/* The kernel's log10 over an array, one element per loop call as the
 * sampler calls it (for the contract test against np.log10). */
void kernel_log10(void *fn, void *data, const double *in, double *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = np_log10(fn, data, in[i]);
}
