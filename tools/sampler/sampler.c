/*
 * A sampling profiler that loads into a process through LD_PRELOAD.
 *
 * A ticker thread sends SIGPROF to the process's main thread each time
 * that thread's CPU clock has advanced 50 microseconds, so time the main
 * thread spends blocked (say, waiting for a child) is not sampled. The
 * handler walks the
 * interrupted stack by its frame pointers and appends the program counters
 * to a preallocated buffer; nothing in the handler allocates or locks. At
 * exit the samples and a copy of /proc/self/maps are written to
 * SAMPLER_OUT (default sampler.out), and report.py turns them into self
 * and inclusive time per function.
 *
 * Only the main thread is sampled. The walk needs frame pointers, so build
 * the profiled program with RUSTFLAGS="-C force-frame-pointers=yes"; see
 * README.md for the full recipe.
 *
 * Build: cc -O2 -shared -fPIC -pthread -o sampler.so sampler.c
 * Run:   LD_PRELOAD=./sampler.so SAMPLER_OUT=run.samples ./program args
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

/* Frames kept per sample, and the sample buffer's size in 8-byte words
 * (each sample takes its depth plus one). Pages are touched as used. */
#define MAX_DEPTH 128
#define BUFFER_WORDS (16u << 20)

/* Main-thread CPU time between two samples. */
#define PERIOD_US 50

static uint64_t *buffer;
static volatile size_t used;
static volatile uint64_t dropped;
static uintptr_t stack_top;
static pid_t main_tid;
static clockid_t main_clock;
static volatile int running;
static pthread_t ticker;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    int saved_errno = errno;
    const ucontext_t *uc = context;
#if defined(__x86_64__)
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
#else
#error "sampler supports x86_64 only"
#endif
    size_t start = used;
    if (start + 1 + MAX_DEPTH > BUFFER_WORDS) {
        dropped++;
        errno = saved_errno;
        return;
    }
    size_t depth = 0;
    buffer[start + 1 + depth++] = pc;
    /* A frame is [saved frame pointer, return address]. Follow the chain
     * only while it stays inside the mapped part of the main stack and
     * moves towards its top, so a frame without a frame pointer ends the
     * walk instead of faulting. */
    while (depth < MAX_DEPTH && fp >= sp && fp % sizeof(uintptr_t) == 0 &&
           fp + 2 * sizeof(uintptr_t) <= stack_top) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        uintptr_t ret = frame[1];
        if (ret == 0)
            break;
        buffer[start + 1 + depth++] = ret;
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    buffer[start] = depth;
    used = start + 1 + depth;
    errno = saved_errno;
}

/* The main thread's CPU time in nanoseconds. */
static uint64_t main_cpu_ns(void) {
    struct timespec t;
    if (clock_gettime(main_clock, &t) != 0)
        return 0;
    return (uint64_t)t.tv_sec * 1000000000u + (uint64_t)t.tv_nsec;
}

static void *tick(void *arg) {
    (void)arg;
    const struct timespec gap = {0, PERIOD_US * 1000};
    pid_t pid = getpid();
    /* The default 50 us timer slack would double the period. */
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    uint64_t last = main_cpu_ns();
    while (running) {
        clock_nanosleep(CLOCK_MONOTONIC, 0, &gap, NULL);
        uint64_t now = main_cpu_ns();
        if (now - last < PERIOD_US * 1000u)
            continue;
        last = now;
        syscall(SYS_tgkill, pid, main_tid, SIGPROF);
    }
    return NULL;
}

/* Copies /proc/self/maps into the output so addresses can be attributed to
 * the files mapped at that time. */
static void copy_maps(FILE *out) {
    int fd = open("/proc/self/maps", O_RDONLY);
    if (fd < 0)
        return;
    char chunk[4096];
    ssize_t n;
    while ((n = read(fd, chunk, sizeof chunk)) > 0)
        fwrite(chunk, 1, (size_t)n, out);
    close(fd);
}

__attribute__((constructor)) static void sampler_start(void) {
    pthread_attr_t attr;
    void *stack_lo;
    size_t stack_size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    pthread_attr_getstack(&attr, &stack_lo, &stack_size);
    pthread_attr_destroy(&attr);
    stack_top = (uintptr_t)stack_lo + stack_size;
    buffer = mmap(NULL, BUFFER_WORDS * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buffer == MAP_FAILED)
        return;
    main_tid = (pid_t)syscall(SYS_gettid);
    if (pthread_getcpuclockid(pthread_self(), &main_clock) != 0)
        return;
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    running = 1;
    if (pthread_create(&ticker, NULL, tick, NULL) != 0)
        running = 0;
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (!running)
        return;
    running = 0;
    pthread_join(ticker, NULL);
    signal(SIGPROF, SIG_IGN);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "sampler.out", "w");
    if (!out)
        return;
    size_t samples = 0;
    for (size_t at = 0; at < used; at += 1 + buffer[at])
        samples++;
    fprintf(out, "samples %zu dropped %llu\n", samples, (unsigned long long)dropped);
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    fprintf(out, "exe %s\n", exe);
    for (size_t at = 0; at < used; at += 1 + buffer[at]) {
        for (uint64_t i = 0; i < buffer[at]; i++)
            fprintf(out, i ? " %llx" : "%llx", (unsigned long long)buffer[at + 1 + i]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    copy_maps(out);
    fclose(out);
}
