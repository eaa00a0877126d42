/*
 * guardian_runner, the one compiled module of guardian.numerics: it runs a
 * program, a sequence of steps, in one call, as calling each step's
 * callable in turn with its arguments would, and Adam's update (adam_step,
 * below). numerics._load_runner builds it. A step is a (callable, args)
 * pair or a (callable, args, kwargs) triple, args a tuple and kwargs a
 * dict; the steps must not change once lowered.
 *
 * lower(steps) makes a Program. Two kinds of step are lowered to the code
 * numpy itself would run, with numpy's arguments, so the bits are numpy's;
 * every other step stays a vectorcall of its callable with its arguments.
 *
 * A ufunc step is lowered to calls of the ufunc's own inner loop when its
 * operands are given positionally, or all but the output, given as the
 * only keyword, out=; every operand is an exact ndarray of float64 or bool
 * with numpy's own descriptor for it, aligned, in native byte order and of
 * non-negative strides; the output is writeable; and the operands' dtypes,
 * in order, are one signature of the ufunc's loop table, or a bool and a
 * float64 operand of np.multiply, which numpy runs by dd->d. The runner
 * makes the calls numpy's ufunc machinery makes. Where numpy takes its
 * fast path (try_trivial_single_output_loop: no cast, operands of one
 * shape, each contiguous in one order or 1-D, inputs 0-d), that is one
 * call over the whole output. Otherwise the step keeps numpy's own
 * iterator, built with the flags its ufunc builds it with
 * (execute_ufunc_loop), and resets and runs it each time: the loop sees
 * numpy's counts, pointers and strides, and the iterator buffers what
 * numpy's buffers, a broadcast (stride 0), transposed or strided operand
 * copied out contiguously, a bool cast to exact 0.0 and 1.0. This matters
 * where a loop picks its code by its strides: exp and log with a strided
 * output, maximum and minimum on +-0. A step stays a vectorcall where that
 * iterator would copy an operand that overlaps the output, or where an
 * input overlaps the output in a way numpy settles with its overlap solver.
 *
 * ndarray.dot(b, out) of an m x k and a k x n float64 matrix, m, n and k
 * all at least 2, is lowered to the call of numpy's own BLAS that numpy's
 * cblas_matrixproduct makes for two matrices: the output zeroed, then gemm,
 * with the transpose flags and leading dimensions of the operands' layouts
 * (transposed views included), or, for a matrix times its own transpose
 * a.dot(a.T), syrk and a copy of the upper triangle into the lower one. The
 * BLAS is the ILP64 scipy_cblas_{dgemm,dsyrk}64_ that numpy's own module
 * was linked with, looked up through that already loaded module
 * (dlopen(RTLD_NOLOAD)), so no second BLAS is ever loaded. Every other
 * product stays a vectorcall of ndarray.dot, numpy's own call with its
 * bits: a row or a column (numpy's gemv or dot), an inner dimension of 1,
 * a.T.dot(a), operands numpy would copy, an output that shares memory with
 * an operand, and every product where numpy has no such symbols.
 *
 * A lowered step skips numpy's floating-point error check, so it emits no
 * warning. The runner clears the floating-point status it leaves before
 * the next vectorcall, which numpy's own check then starts from, and
 * before it returns.
 *
 * A Program holds the steps, and through them every callable and operand,
 * and the iterators it keeps, which hold their operands too; lowering keeps
 * raw pointers into those operands. It runs holding the GIL.
 *
 * adam_step(block, lr, bias1, bias2) runs one bias-corrected Adam update
 * over a (4, n) float64 block whose rows hold the values, the gradients
 * and the first and second moments (ParamStore._block), and returns
 * whether every new value is finite. It reads n and the rows' addresses
 * from the block, and raises before writing unless the block is an
 * aligned, writeable, native-endian float64 array of 4 rows, each row
 * contiguous and apart from the others. The loop is the per-entry update
 * in the order of operations of numerics._adam_step_numpy, with its bits.
 * IEEE add, multiply, divide and sqrt are correctly rounded at any vector
 * width, and the build passes -ffp-contract=off, so no multiply and add
 * are fused but where the loop calls fma() itself; beta1, beta2 and eps
 * come as -D definitions of ADAM_BETA1, ADAM_BETA2 and ADAM_EPS. The
 * divisions by bias1 and bias2, the same for every entry of a step, run as
 * products by their reciprocals, each corrected by two fma() calls to the
 * correctly rounded quotient (Markstein, IBM J. Res. Dev. 34(1), 1990).
 * That is exact while quotient and remainder stay normal, so it is guarded:
 * a chunk of 16 entries takes the products only when both biases lie in
 * [2^-10, 1] and each of its new moments is +-0 or has 2^-968 <= |a| <
 * 2^1000; any other chunk (subnormals, inf, NaN, a square that overflows)
 * and the last n mod 16 entries divide. The products are compiled only
 * where fma() is one instruction: on x86-64 glibc a loop for avx512f and
 * one for avx2 with fma take them, and a loop of divisions, cloned for avx2
 * and a default, runs on any other CPU, one picked as the module loads;
 * elsewhere the products are compiled where the build defines
 * __FP_FAST_FMA (aarch64, say) and the divisions where it does not. The
 * build must never take -ffast-math, -Ofast or
 * -funsafe-math-optimizations: gcc then links crtfastmath.o, which flushes
 * subnormals to zero in the whole process.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <dlfcn.h>
#include <fenv.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define NPY_NO_DEPRECATED_API NPY_1_22_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/ufuncobject.h>

#define MAX_OPERANDS 3

enum kind { VECTORCALL, LOOP, GEMM, SYRK };

/* CBLAS's enumerations */
enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112, UPPER = 121 };

typedef void (*gemm_fn)(int, int, int, int64_t, int64_t, int64_t, double, const double *,
                        int64_t, const double *, int64_t, double, double *, int64_t);
typedef void (*syrk_fn)(int, int, int, int64_t, int64_t, double, const double *, int64_t,
                        double, double *, int64_t);

static gemm_fn dgemm; /* numpy's BLAS, or both NULL */
static syrk_fn dsyrk;

/* A ufunc step: its inner loop, and either the one call of numpy's fast
 * path or numpy's own iterator, which is reset and run each time. */
typedef struct {
    PyUFuncGenericFunction function;
    void *data;
    npy_intp count;
    char *operands[MAX_OPERANDS];
    npy_intp strides[MAX_OPERANDS];
    NpyIter *iter; /* NULL on the fast path */
    NpyIter_IterNextFunc *iternext;
    char **pointers;
    npy_intp *iter_strides, *iter_count;
} Loop;

/* A BLAS call, as numpy's cblas_matrixproduct makes it for two matrices:
 * gemm(ROW_MAJOR, trans_a, trans_b, m, n, k, 1, a, lda, b, ldb, 0, c, ldc)
 * and syrk(ROW_MAJOR, UPPER, NO_TRANS, n, k, 1, a, lda, 0, c, ldc). */
typedef struct {
    int trans_a, trans_b;
    npy_intp m, n, k, lda, ldb, ldc;
    const double *a, *b;
    double *c;
    size_t c_bytes;
} Product;

typedef struct {
    enum kind kind;
    union {
        Loop loop;
        Product product;
    };
    PyObject *callable; /* borrowed, as are args and kwargs, from the program's steps */
    PyObject *const *args;
    Py_ssize_t nargs;
    PyObject *kwargs; /* NULL when empty */
} Step;

typedef struct {
    PyObject_VAR_HEAD
    vectorcallfunc vectorcall;
    PyObject *steps; /* a tuple of the steps */
    Py_ssize_t lowered;
    Step step[1];
} Program;

static PyObject *out_keyword; /* "out", interned */
static PyObject *multiply;    /* np.multiply */
static PyCFunction ndarray_dot; /* the C function of ndarray.dot */

static void clear_fp_status(void)
{
    feclearexcept(FE_DIVBYZERO | FE_OVERFLOW | FE_UNDERFLOW | FE_INVALID);
}

/* The bytes an array of non-negative strides spans, as [*start, *end). */
static void extent(PyArrayObject *array, char **start, char **end)
{
    npy_intp last = 0;
    int i;

    for (i = 0; i < PyArray_NDIM(array); i++) {
        last += (PyArray_DIM(array, i) - 1) * PyArray_STRIDE(array, i);
    }
    *start = PyArray_BYTES(array);
    *end = *start + (PyArray_SIZE(array) == 0 ? 0 : last + PyArray_ITEMSIZE(array));
}

static int overlap(PyArrayObject *x, PyArrayObject *y)
{
    char *x_start, *x_end, *y_start, *y_end;

    extent(x, &x_start, &x_end);
    extent(y, &y_start, &y_end);
    return x_start < y_end && y_start < x_end;
}

static int same_view(PyArrayObject *x, PyArrayObject *y)
{
    return PyArray_BYTES(x) == PyArray_BYTES(y) && PyArray_NDIM(x) == PyArray_NDIM(y)
        && PyArray_CompareLists(PyArray_DIMS(x), PyArray_DIMS(y), PyArray_NDIM(x))
        && PyArray_CompareLists(PyArray_STRIDES(x), PyArray_STRIDES(y), PyArray_NDIM(x));
}

/* The canonical descriptor of a builtin type, borrowed: numpy keeps one for the process. */
static PyArray_Descr *canonical(int type)
{
    PyArray_Descr *descr = PyArray_DescrFromType(type);
    Py_DECREF(descr);
    return descr;
}

static int negative_stride(PyArrayObject *array)
{
    int i;

    for (i = 0; i < PyArray_NDIM(array); i++) {
        if (PyArray_STRIDE(array, i) < 0) {
            return 1;
        }
    }
    return 0;
}

/* The stride numpy's fast path pairs an operand's elements by
 * (PyArray_TRIVIAL_PAIR_ITERATION_STRIDE). */
static npy_intp pair_stride(PyArrayObject *array)
{
    if (PyArray_SIZE(array) == 1) {
        return 0;
    }
    return PyArray_NDIM(array) == 1 ? PyArray_STRIDE(array, 0) : PyArray_ITEMSIZE(array);
}

/* Whether numpy's ufunc runs these operands (inputs, then the output) of
 * these loop types as one call of its loop (try_trivial_single_output_loop),
 * with these strides; -1 where an input's memory overlaps the output's, other
 * than as the same view, and numpy's answer hangs on its overlap solver. */
static int numpy_fast_path(PyArrayObject **ops, PyObject **given, const char *types, int nin,
                           npy_intp *strides)
{
    PyArrayObject *out = ops[nin];
    npy_intp *shape = NULL;
    int order = 0, ndim = 0, k;

    for (k = 0; k <= nin; k++) {
        int nd = PyArray_NDIM(ops[k]);
        if (PyArray_TYPE(ops[k]) != types[k]) {
            return 0; /* a cast */
        }
        if (nd == 0 && k < nin) {
            strides[k] = 0;
            continue;
        }
        if (shape == NULL) {
            ndim = nd;
            shape = PyArray_DIMS(ops[k]);
        }
        else if (nd != ndim || !PyArray_CompareLists(shape, PyArray_DIMS(ops[k]), nd)) {
            return 0;
        }
        if (nd == 1) {
            strides[k] = PyArray_STRIDE(ops[k], 0);
        }
        else {
            int flags = PyArray_FLAGS(ops[k]) & (NPY_ARRAY_C_CONTIGUOUS | NPY_ARRAY_F_CONTIGUOUS);
            strides[k] = PyArray_ITEMSIZE(ops[k]);
            if (flags == 0 || (order != 0 && flags != order
                               && flags != (NPY_ARRAY_C_CONTIGUOUS | NPY_ARRAY_F_CONTIGUOUS))) {
                return 0;
            }
            if (order == 0 && flags != (NPY_ARRAY_C_CONTIGUOUS | NPY_ARRAY_F_CONTIGUOUS)) {
                order = flags;
            }
        }
    }
    /* PyArray_EQUIVALENTLY_ITERABLE_OVERLAP_OK(input, out, read, not read) */
    for (k = 0; k < nin; k++) {
        npy_intp in_stride = pair_stride(ops[k]), out_stride = pair_stride(out);
        if (!overlap(ops[k], out) || (given[k] == given[nin] && in_stride != 0)) {
            continue;
        }
        if (!(in_stride > 0 && in_stride >= out_stride && PyArray_BYTES(ops[k]) >= PyArray_BYTES(out))) {
            /* the same view certainly shares memory with itself */
            return same_view(ops[k], out) ? 0 : -1;
        }
    }
    return 1;
}

/* numpy's iterator over the operands, as its ufunc builds it
 * (execute_ufunc_loop), and what the runner calls the loop with; 0 where it
 * cannot be built, would copy an operand or iterates over nothing. Its
 * buffers are made by its first reset, when the step first runs. */
static int ufunc_iterator(Loop *loop, PyArrayObject **ops, PyArray_Descr **dtypes, int nargs)
{
    npy_uint32 op_flags[MAX_OPERANDS];
    NpyIter *iter;
    PyArrayObject **used;
    int k, copied = 0;

    for (k = 0; k < nargs - 1; k++) {
        op_flags[k] = NPY_ITER_READONLY | NPY_ITER_ALIGNED | NPY_ITER_OVERLAP_ASSUME_ELEMENTWISE;
    }
    op_flags[nargs - 1] = NPY_ITER_WRITEONLY | NPY_ITER_ALIGNED | NPY_ITER_ALLOCATE
        | NPY_ITER_NO_BROADCAST | NPY_ITER_NO_SUBTYPE | NPY_ITER_OVERLAP_ASSUME_ELEMENTWISE;
    iter = NpyIter_AdvancedNew(nargs, ops,
                               NPY_ITER_EXTERNAL_LOOP | NPY_ITER_REFS_OK | NPY_ITER_ZEROSIZE_OK
                                   | NPY_ITER_BUFFERED | NPY_ITER_GROWINNER
                                   | NPY_ITER_DELAY_BUFALLOC | NPY_ITER_COPY_IF_OVERLAP,
                               NPY_KEEPORDER, NPY_UNSAFE_CASTING, op_flags, dtypes, -1, NULL,
                               NULL, 0);
    if (iter == NULL) {
        PyErr_Clear(); /* numpy would raise: the vectorcall will */
        return 0;
    }
    /* a copy made now, of an operand that overlaps the output, would be stale when the step runs */
    used = NpyIter_GetOperandArray(iter);
    for (k = 0; k < nargs; k++) {
        if (used[k] != ops[k]) {
            PyArray_DiscardWritebackIfCopy(used[k]); /* never written back into the operand */
            copied = 1;
        }
    }
    if (copied || NpyIter_GetIterSize(iter) == 0
        || (loop->iternext = NpyIter_GetIterNext(iter, NULL)) == NULL) {
        NpyIter_Deallocate(iter);
        PyErr_Clear();
        return 0;
    }
    loop->iter = iter;
    loop->pointers = NpyIter_GetDataPtrArray(iter);
    loop->iter_strides = NpyIter_GetInnerStrideArray(iter);
    loop->iter_count = NpyIter_GetInnerLoopSizePtr(iter);
    return 1;
}

/* Lower a ufunc step to its inner loop (kind LOOP) if it qualifies; 1 if it did. */
static int lower_loop(Step *s)
{
    Loop *loop = &s->loop;
    PyUFuncObject *ufunc;
    PyObject *given[MAX_OPERANDS];
    PyArrayObject *ops[MAX_OPERANDS], *out;
    PyArray_Descr *dtypes[MAX_OPERANDS];
    char types[MAX_OPERANDS];
    int k, i, nargs, nin, fast;

    if (Py_TYPE(s->callable) != &PyUFunc_Type) {
        return 0;
    }
    ufunc = (PyUFuncObject *)s->callable;
    nargs = ufunc->nargs;
    nin = nargs - 1;
    if (ufunc->core_enabled || ufunc->nout != 1 || nargs > MAX_OPERANDS) {
        return 0;
    }
    /* the operands: every one positional, or the output as the only keyword, out= */
    if (s->kwargs == NULL && s->nargs == nargs) {
        memcpy(given, s->args, sizeof(PyObject *) * nargs);
    }
    else if (s->kwargs != NULL && s->nargs == nin && PyDict_GET_SIZE(s->kwargs) == 1) {
        PyObject *value = PyDict_GetItem(s->kwargs, out_keyword);
        if (value == NULL) {
            return 0;
        }
        memcpy(given, s->args, sizeof(PyObject *) * nin);
        given[nin] = value;
    }
    else {
        return 0;
    }
    for (k = 0; k < nargs; k++) {
        int type;
        if (!PyArray_CheckExact(given[k])) {
            return 0;
        }
        ops[k] = (PyArrayObject *)given[k];
        type = PyArray_TYPE(ops[k]);
        /* numpy's fast path needs the very descriptor its loop takes */
        if ((type != NPY_DOUBLE && type != NPY_BOOL) || PyArray_DESCR(ops[k]) != canonical(type)
            || !PyArray_ISNOTSWAPPED(ops[k]) || !PyArray_ISALIGNED(ops[k]) || negative_stride(ops[k])) {
            return 0;
        }
        types[k] = (char)type;
    }
    out = ops[nin];
    if (!PyArray_ISWRITEABLE(out)) {
        return 0;
    }
    if (s->callable == multiply && types[nin] == NPY_DOUBLE && types[0] != types[1]) {
        /* numpy multiplies a bool by a float64 with dd->d, the bool cast in its iterator's buffer */
        types[types[0] == NPY_BOOL ? 0 : 1] = NPY_DOUBLE;
    }
    for (i = 0; i < ufunc->ntypes; i++) {
        const char *signature = ufunc->types + (size_t)i * nargs;
        for (k = 0; k < nargs && signature[k] == types[k]; k++) {
        }
        if (k == nargs) {
            break;
        }
    }
    if (i == ufunc->ntypes || ufunc->functions[i] == NULL) {
        return 0;
    }
    fast = numpy_fast_path(ops, given, types, nin, loop->strides);
    if (fast < 0) {
        return 0;
    }
    if (fast > 0) {
        loop->count = PyArray_SIZE(out);
        for (k = 0; k < nargs; k++) {
            loop->operands[k] = PyArray_BYTES(ops[k]);
        }
    }
    else {
        for (k = 0; k < nargs; k++) {
            dtypes[k] = canonical(types[k]);
        }
        if (!ufunc_iterator(loop, ops, dtypes, nargs)) {
            return 0;
        }
    }
    loop->function = ufunc->functions[i];
    loop->data = ufunc->data == NULL ? NULL : ufunc->data[i];
    s->kind = LOOP;
    return 1;
}

/* Run a ufunc step; 0 with an exception set if numpy's iterator failed. */
static int run_loop(Loop *loop)
{
    if (loop->iter == NULL) {
        loop->function(loop->operands, &loop->count, loop->strides, loop->data);
        return 1;
    }
    if (NpyIter_Reset(loop->iter, NULL) != NPY_SUCCEED) {
        return 0;
    }
    do {
        loop->function(loop->pointers, loop->iter_count, loop->iter_strides, loop->data);
    } while (loop->iternext(loop->iter));
    return !PyErr_Occurred();
}

/* An operand numpy's cblas_matrixproduct copies before it calls BLAS (_bad_strides). */
static int bad_strides(PyArrayObject *array)
{
    int i;

    if ((uintptr_t)PyArray_DATA(array) % sizeof(double) != 0) {
        return 1;
    }
    for (i = 0; i < PyArray_NDIM(array); i++) {
        npy_intp stride = PyArray_STRIDE(array, i);
        if (stride < 0 || stride % (npy_intp)sizeof(double) != 0
            || (stride == 0 && PyArray_DIM(array, i) > 1)) {
            return 1;
        }
    }
    return 0;
}

static int is_float64_matrix(PyObject *object)
{
    return PyArray_CheckExact(object) && PyArray_NDIM((PyArrayObject *)object) == 2
        && PyArray_TYPE((PyArrayObject *)object) == NPY_DOUBLE
        && PyArray_ISNOTSWAPPED((PyArrayObject *)object)
        && PyArray_DIM((PyArrayObject *)object, 0) < INT_MAX
        && PyArray_DIM((PyArrayObject *)object, 1) < INT_MAX;
}

/* Lower a step a.dot(b, out) of two matrices to numpy's BLAS call (kind GEMM
 * or SYRK) if it qualifies; 1 if it did. */
static int lower_product(Step *s)
{
    Product *p = &s->product;
    PyObject *self;
    PyArrayObject *a, *b, *out;
    int a_f, b_f;

    if (dgemm == NULL || !PyCFunction_Check(s->callable)
        || PyCFunction_GET_FUNCTION(s->callable) != ndarray_dot || s->kwargs != NULL || s->nargs != 2) {
        return 0;
    }
    self = PyCFunction_GET_SELF(s->callable);
    if (self == NULL || !is_float64_matrix(self) || !is_float64_matrix(s->args[0])
        || !is_float64_matrix(s->args[1])) {
        return 0;
    }
    a = (PyArrayObject *)self;
    b = (PyArrayObject *)s->args[0];
    out = (PyArrayObject *)s->args[1];
    p->m = PyArray_DIM(a, 0);
    p->k = PyArray_DIM(a, 1);
    p->n = PyArray_DIM(b, 1);
    /* a row or a column is numpy's gemv or dot; an inner dimension of 1, its scalar path */
    if (PyArray_DIM(b, 0) != p->k || p->m < 2 || p->n < 2 || p->k < 2
        || PyArray_DIM(out, 0) != p->m || PyArray_DIM(out, 1) != p->n) {
        return 0;
    }
    if (!PyArray_ISCARRAY(out) || bad_strides(a) || bad_strides(b) || overlap(out, a) || overlap(out, b)) {
        return 0;
    }
    a_f = PyArray_IS_F_CONTIGUOUS(a);
    b_f = PyArray_IS_F_CONTIGUOUS(b);
    if ((!PyArray_IS_C_CONTIGUOUS(a) && !a_f) || (!PyArray_IS_C_CONTIGUOUS(b) && !b_f)) {
        return 0;
    }
    p->trans_a = a_f ? TRANS : NO_TRANS;
    p->trans_b = b_f ? TRANS : NO_TRANS;
    p->lda = a_f ? p->m : p->k;
    p->ldb = b_f ? p->k : p->n;
    p->ldc = p->n;
    p->a = (const double *)PyArray_DATA(a);
    p->b = (const double *)PyArray_DATA(b);
    p->c = (double *)PyArray_DATA(out);
    p->c_bytes = (size_t)PyArray_NBYTES(out);
    if (PyArray_BYTES(a) == PyArray_BYTES(b) && p->m == p->n
        && PyArray_STRIDE(a, 0) == PyArray_STRIDE(b, 1) && PyArray_STRIDE(a, 1) == PyArray_STRIDE(b, 0)
        && p->trans_a != p->trans_b) {
        /* a matrix times its own transpose: numpy's syrk, a.T.dot(a) left to numpy */
        if (p->trans_a == TRANS) {
            return 0;
        }
        s->kind = SYRK;
        return 1;
    }
    s->kind = GEMM;
    return 1;
}

static void run_product(enum kind kind, const Product *p)
{
    npy_intp i, j;

    memset(p->c, 0, p->c_bytes);
    if (kind == GEMM) {
        dgemm(ROW_MAJOR, p->trans_a, p->trans_b, p->m, p->n, p->k, 1.0, p->a, p->lda, p->b, p->ldb,
              0.0, p->c, p->ldc);
        return;
    }
    dsyrk(ROW_MAJOR, UPPER, NO_TRANS, p->n, p->k, 1.0, p->a, p->lda, 0.0, p->c, p->ldc);
    for (i = 0; i < p->n; i++) {
        for (j = i + 1; j < p->n; j++) {
            p->c[j * p->ldc + i] = p->c[i * p->ldc + j];
        }
    }
}

static PyObject *program_call(PyObject *self, PyObject *const *args, size_t nargsf,
                              PyObject *kwnames)
{
    Program *program = (Program *)self;
    Py_ssize_t i, n = Py_SIZE(program);
    int dirty = 0;

    if (PyVectorcall_NARGS(nargsf) != 0 || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0)) {
        PyErr_SetString(PyExc_TypeError, "a program takes no arguments");
        return NULL;
    }
    for (i = 0; i < n; i++) {
        Step *s = &program->step[i];
        PyObject *result;
        if (s->kind != VECTORCALL) {
            if (s->kind == LOOP) {
                if (!run_loop(&s->loop)) {
                    clear_fp_status();
                    return NULL;
                }
            }
            else {
                run_product(s->kind, &s->product);
            }
            dirty = 1;
            continue;
        }
        if (dirty) {
            clear_fp_status();
            dirty = 0;
        }
        result = s->kwargs == NULL
            ? PyObject_Vectorcall(s->callable, s->args, s->nargs, NULL)
            : PyObject_VectorcallDict(s->callable, s->args, s->nargs, s->kwargs);
        if (result == NULL) {
            return NULL;
        }
        Py_DECREF(result);
    }
    if (dirty) {
        clear_fp_status();
    }
    Py_RETURN_NONE;
}

static int program_traverse(Program *self, visitproc visit, void *arg)
{
    Py_VISIT(self->steps);
    return 0;
}

/* Free what lowering made, and drop the steps' borrowed pointers with them. */
static void release_steps(Program *self)
{
    Py_ssize_t i;

    for (i = 0; i < Py_SIZE(self); i++) {
        Step *s = &self->step[i];
        if (s->kind == LOOP && s->loop.iter != NULL) {
            NpyIter_Deallocate(s->loop.iter);
        }
    }
    Py_SET_SIZE(self, 0);
}

static int program_clear(Program *self)
{
    release_steps(self);
    Py_CLEAR(self->steps);
    return 0;
}

static void program_dealloc(Program *self)
{
    PyObject_GC_UnTrack(self);
    release_steps(self);
    Py_XDECREF(self->steps);
    PyObject_GC_Del(self);
}

static PyMemberDef program_members[] = {
    {"steps", T_OBJECT, offsetof(Program, steps), READONLY,
     "the steps, in the order they run"},
    {"lowered", T_PYSSIZET, offsetof(Program, lowered), READONLY,
     "how many steps run as numpy's own inner loops or BLAS calls, without a vectorcall"},
    {NULL},
};

static PyTypeObject ProgramType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "guardian_runner.Program",
    .tp_doc = "A lowered program; calling it runs every step in order and returns None.",
    .tp_basicsize = offsetof(Program, step),
    .tp_itemsize = sizeof(Step),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_vectorcall_offset = offsetof(Program, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_traverse = (traverseproc)program_traverse,
    .tp_clear = (inquiry)program_clear,
    .tp_dealloc = (destructor)program_dealloc,
    .tp_members = program_members,
};

static PyObject *lower(PyObject *module, PyObject *arg)
{
    PyObject *steps = PySequence_Tuple(arg);
    Program *program;
    Py_ssize_t i, n;

    if (steps == NULL) {
        return NULL;
    }
    n = PyTuple_GET_SIZE(steps);
    for (i = 0; i < n; i++) {
        PyObject *step = PyTuple_GET_ITEM(steps, i);
        if (!PyTuple_Check(step) || PyTuple_GET_SIZE(step) < 2 || PyTuple_GET_SIZE(step) > 3
            || !PyCallable_Check(PyTuple_GET_ITEM(step, 0))
            || !PyTuple_Check(PyTuple_GET_ITEM(step, 1))
            || (PyTuple_GET_SIZE(step) == 3 && !PyDict_Check(PyTuple_GET_ITEM(step, 2)))) {
            PyErr_Format(PyExc_TypeError,
                         "step %zd is not a (callable, tuple) pair or a (callable, tuple, dict) triple", i);
            Py_DECREF(steps);
            return NULL;
        }
    }
    program = PyObject_GC_NewVar(Program, &ProgramType, n);
    if (program == NULL) {
        Py_DECREF(steps);
        return NULL;
    }
    program->vectorcall = program_call;
    program->steps = steps;
    program->lowered = 0;
    memset(program->step, 0, n * sizeof(Step)); /* every step a VECTORCALL until lowered */
    for (i = 0; i < n; i++) {
        PyObject *step = PyTuple_GET_ITEM(steps, i);
        PyObject *args = PyTuple_GET_ITEM(step, 1);
        PyObject *kwargs = PyTuple_GET_SIZE(step) == 3 ? PyTuple_GET_ITEM(step, 2) : NULL;
        Step *s = &program->step[i];
        s->callable = PyTuple_GET_ITEM(step, 0);
        s->args = &PyTuple_GET_ITEM(args, 0);
        s->nargs = PyTuple_GET_SIZE(args);
        s->kwargs = kwargs != NULL && PyDict_GET_SIZE(kwargs) != 0 ? kwargs : NULL;
        if (!lower_loop(s)) {
            lower_product(s);
        }
        program->lowered += s->kind != VECTORCALL;
    }
    PyObject_GC_Track(program);
    return (PyObject *)program;
}

#define EXPONENT UINT64_C(0x7ff0000000000000)

/* Each loop below compiles these for its own target, so they must always inline. */
#define ADAM_INLINE static inline __attribute__((always_inline))

/* Stores one entry's new moments and value; whether the value is inf or NaN. */
ADAM_INLINE uint64_t adam_store(npy_intp i, double *restrict value, double *restrict m,
                                double *restrict v, double mi, double vi, double x)
{
    /* inf and NaN have every exponent bit set; an integer test keeps the loop vectorised */
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    m[i] = mi;
    v[i] = vi;
    value[i] = x;
    return (bits & EXPONENT) == EXPONENT;
}

/* Entries [start, end) of the update, its three divisions as written. */
ADAM_INLINE uint64_t adam_divided(npy_intp start, npy_intp end, double *restrict value,
                                  const double *restrict grad, double *restrict m,
                                  double *restrict v, double lr, double bias1, double bias2)
{
    uint64_t non_finite = 0;
    for (npy_intp i = start; i < end; i++) {
        double g = grad[i];
        double mi = m[i] * ADAM_BETA1 + g * (1.0 - ADAM_BETA1);
        double vi = v[i] * ADAM_BETA2 + g * g * (1.0 - ADAM_BETA2);
        double x = value[i] - mi / bias1 * lr / (sqrt(vi / bias2) + ADAM_EPS);
        non_finite |= adam_store(i, value, m, v, mi, vi, x);
    }
    return non_finite;
}

#define ADAM_CHUNK 16

/* Whether adam_quotient(a, b, 1.0 / b) is a / b for every bias b in
 * [2^-10, 1]: a is +-0, or the quotient and the remainder stay normal. */
ADAM_INLINE int adam_exact(double a)
{
    double size = fabs(a);
    return (a == 0.0) | ((size >= 0x1p-968) & (size < 0x1p1000));
}

/* a / b from r = 1.0 / b: the product a * r is within an ulp of the
 * quotient, fma(-q, b, a) is its remainder exactly, and adding the
 * remainder times r rounds to the quotient (Markstein); copysign keeps
 * -0.0, which the correction would turn into +0.0. */
ADAM_INLINE double adam_quotient(double a, double b, double r)
{
    double q = a * r;
    return copysign(fma(fma(-q, b, a), r, q), a);
}

/* The update with its divisions by bias1 and bias2 as adam_quotient in
 * each chunk whose new moments all pass adam_exact, and as divisions
 * elsewhere. Only code where fma() is one instruction may inline this. */
ADAM_INLINE int adam_fused(npy_intp n, double *restrict value, const double *restrict grad,
                           double *restrict m, double *restrict v, double lr, double bias1,
                           double bias2)
{
    uint64_t non_finite = 0;
    npy_intp i = 0;
    if (bias1 >= 0x1p-10 && bias1 <= 1.0 && bias2 >= 0x1p-10 && bias2 <= 1.0) {
        double r1 = 1.0 / bias1, r2 = 1.0 / bias2;
        for (; i + ADAM_CHUNK <= n; i += ADAM_CHUNK) {
            double mi[ADAM_CHUNK], vi[ADAM_CHUNK];
            int exact = 1;
            for (int j = 0; j < ADAM_CHUNK; j++) {
                double g = grad[i + j];
                mi[j] = m[i + j] * ADAM_BETA1 + g * (1.0 - ADAM_BETA1);
                vi[j] = v[i + j] * ADAM_BETA2 + g * g * (1.0 - ADAM_BETA2);
                exact &= adam_exact(mi[j]) & adam_exact(vi[j]);
            }
            if (!exact) {
                non_finite |= adam_divided(i, i + ADAM_CHUNK, value, grad, m, v, lr, bias1, bias2);
                continue;
            }
            for (int j = 0; j < ADAM_CHUNK; j++) {
                double x = value[i + j] - adam_quotient(mi[j], bias1, r1) * lr
                                              / (sqrt(adam_quotient(vi[j], bias2, r2)) + ADAM_EPS);
                non_finite |= adam_store(i + j, value, m, v, mi[j], vi[j], x);
            }
        }
    }
    return !(non_finite | adam_divided(i, n, value, grad, m, v, lr, bias1, bias2));
}

#define ADAM_PARAMETERS                                                                    \
    npy_intp n, double *restrict value, const double *restrict grad, double *restrict m,  \
        double *restrict v, double lr, double bias1, double bias2

typedef int (*adam_fn)(ADAM_PARAMETERS);

/* The loop adam_step runs, picked as the module loads (find_adam_loop). */
#if defined(__x86_64__) && defined(__GLIBC__)
__attribute__((target("avx512f"))) static int adam_avx512f(ADAM_PARAMETERS)
{
    return adam_fused(n, value, grad, m, v, lr, bias1, bias2);
}

__attribute__((target("avx2,fma"))) static int adam_avx2_fma(ADAM_PARAMETERS)
{
    return adam_fused(n, value, grad, m, v, lr, bias1, bias2);
}

__attribute__((target_clones("avx2", "default"))) static int adam_divisions(ADAM_PARAMETERS)
{
    return !adam_divided(0, n, value, grad, m, v, lr, bias1, bias2);
}

static adam_fn find_adam_loop(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
        return adam_avx512f;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        return adam_avx2_fma;
    }
    return adam_divisions;
}
#else
static int adam_built(ADAM_PARAMETERS)
{
#ifdef __FP_FAST_FMA
    return adam_fused(n, value, grad, m, v, lr, bias1, bias2);
#else
    return !adam_divided(0, n, value, grad, m, v, lr, bias1, bias2);
#endif
}

static adam_fn find_adam_loop(void)
{
    return adam_built;
}
#endif

static adam_fn adam_loop;

static PyObject *adam_step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyArrayObject *block;
    double lr, bias1, bias2;
    npy_intp n, stride;
    char *row;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "adam_step takes a block, lr, bias1 and bias2");
        return NULL;
    }
    lr = PyFloat_AsDouble(args[1]);
    bias1 = PyFloat_AsDouble(args[2]);
    bias2 = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    block = (PyArrayObject *)args[0];
    if (!PyArray_Check(block) || PyArray_NDIM(block) != 2 || PyArray_DIM(block, 0) != 4
        || PyArray_TYPE(block) != NPY_DOUBLE || !PyArray_ISNOTSWAPPED(block)
        || !PyArray_ISALIGNED(block) || !PyArray_ISWRITEABLE(block)) {
        PyErr_SetString(PyExc_ValueError, "adam_step takes a writeable, aligned, native-endian "
                                          "(4, n) float64 block");
        return NULL;
    }
    n = PyArray_DIM(block, 1);
    stride = PyArray_STRIDE(block, 0);
    if ((n > 1 && PyArray_STRIDE(block, 1) != sizeof(double))
        || (n > 0 && (stride < 0 ? -stride : stride) < n * (npy_intp)sizeof(double))) {
        PyErr_SetString(PyExc_ValueError, "adam_step takes a block whose rows are contiguous "
                                          "and do not overlap");
        return NULL;
    }
    row = PyArray_BYTES(block);
    return PyBool_FromLong(adam_loop(n, (double *)row, (double *)(row + stride),
                                     (double *)(row + 2 * stride), (double *)(row + 3 * stride),
                                     lr, bias1, bias2));
}

static PyMethodDef methods[] = {
    {"lower", lower, METH_O,
     "lower(steps) -> Program: the steps, as one call."},
    {"adam_step", (PyCFunction)(void (*)(void))adam_step, METH_FASTCALL,
     "adam_step(block, lr, bias1, bias2) -> bool: one Adam update of a (4, n) block, in place; "
     "whether every new value is finite."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef runner_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "guardian_runner",
    .m_doc = "Runs programs of numpy calls, ufunc steps through their inner loops and products "
             "through numpy's BLAS, and Adam steps.",
    .m_size = -1,
    .m_methods = methods,
};

/* numpy's BLAS, looked up through numpy's own, already loaded module:
 * dlopen(RTLD_NOLOAD) never loads a library, and dlsym searches the module
 * and the libraries it was linked with. */
static void find_blas(void)
{
    Dl_info info;
    void *numpy;

    if (dladdr((void *)&PyArray_Type, &info) == 0 || info.dli_fname == NULL) {
        return;
    }
    numpy = dlopen(info.dli_fname, RTLD_LAZY | RTLD_NOLOAD);
    if (numpy == NULL) {
        return;
    }
    dgemm = (gemm_fn)dlsym(numpy, "scipy_cblas_dgemm64_");
    dsyrk = (syrk_fn)dlsym(numpy, "scipy_cblas_dsyrk64_");
    if (dgemm == NULL || dsyrk == NULL) {
        dgemm = NULL;
        dsyrk = NULL;
    }
}

/* np.multiply and the C function of ndarray.dot, which lowering recognises */
static int find_callables(void)
{
    npy_intp one = 1;
    PyObject *numpy, *probe, *dot;

    numpy = PyImport_ImportModule("numpy");
    if (numpy == NULL) {
        return -1;
    }
    multiply = PyObject_GetAttrString(numpy, "multiply");
    Py_DECREF(numpy);
    probe = PyArray_ZEROS(1, &one, NPY_DOUBLE, 0);
    if (multiply == NULL || probe == NULL) {
        Py_XDECREF(probe);
        return -1;
    }
    dot = PyObject_GetAttrString(probe, "dot");
    Py_DECREF(probe);
    if (dot == NULL) {
        return -1;
    }
    if (PyCFunction_Check(dot)) {
        ndarray_dot = PyCFunction_GET_FUNCTION(dot);
    }
    Py_DECREF(dot);
    return 0;
}

PyMODINIT_FUNC PyInit_guardian_runner(void)
{
    PyObject *module;

    import_array();
    import_umath();
    out_keyword = PyUnicode_InternFromString("out");
    if (out_keyword == NULL || find_callables() < 0) {
        return NULL;
    }
    find_blas();
    adam_loop = find_adam_loop();
    if (PyType_Ready(&ProgramType) < 0) {
        return NULL;
    }
    module = PyModule_Create(&runner_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&ProgramType);
    if (PyModule_AddObject(module, "Program", (PyObject *)&ProgramType) < 0) {
        Py_DECREF(&ProgramType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
