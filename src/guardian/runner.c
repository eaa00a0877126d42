/*
 * guardian_runner, the one compiled module of guardian.numerics: it runs a
 * program, a sequence of steps, in one call, as calling each step's
 * callable in turn with its arguments would, and Adam's update (adam_step,
 * below). numerics._load_runner builds it. A step is a (callable, args)
 * pair or a (callable, args, kwargs) triple, args a tuple and kwargs a
 * dict; the steps must not change once lowered.
 *
 * lower(steps) makes a Program. A step whose callable is a numpy ufunc is
 * lowered to one call of the ufunc's own inner loop over the whole output
 * when its operands are given positionally, or all but the output, given
 * as the only keyword, out=; every operand is an exact ndarray of float64
 * or bool, aligned and in
 * native byte order; the output is C-contiguous and writeable; each input
 * is C-contiguous at the output's shape (stride its item size) or 0-d
 * (stride 0) and lies at the output's address or apart from it; and the
 * operands' dtypes, in order, are one signature of the ufunc's loop table.
 * numpy runs such a call through that same loop in one pass, so the bits
 * are numpy's. Every other step stays a vectorcall of its callable with
 * its arguments: products, reductions, casts, broadcasts, strided operands
 * that numpy may buffer, and any method.
 *
 * A lowered step skips numpy's floating-point error check, so it emits no
 * warning. The runner clears the floating-point status it leaves before
 * the next vectorcall, which numpy's own check then starts from, and
 * before it returns.
 *
 * A Program holds the steps, and through them every callable and operand,
 * and nothing else; lowering keeps raw pointers into those operands. It
 * runs holding the GIL.
 *
 * adam_step(block, lr, bias1, bias2) runs one bias-corrected Adam update
 * over a (4, n) float64 block whose rows hold the values, the gradients
 * and the first and second moments (ParamStore._block), and returns
 * whether every new value is finite. It reads n and the rows' addresses
 * from the block, and raises before writing unless the block is an
 * aligned, writeable, native-endian float64 array of 4 rows, each row
 * contiguous and apart from the others. The loop is the per-entry update
 * in the order of operations of numerics._adam_step_numpy. IEEE add,
 * multiply, divide and sqrt are correctly rounded at any vector width, so
 * its bits are numpy's as long as no multiply and add are fused: the
 * build passes -ffp-contract=off, and beta1, beta2 and eps as -D
 * definitions of ADAM_BETA1, ADAM_BETA2 and ADAM_EPS. It must never be
 * built with -ffast-math, -Ofast or -funsafe-math-optimizations: gcc then
 * links crtfastmath.o, which flushes subnormals to zero in the whole
 * process. On x86-64 glibc the loop is cloned for avx512f, avx2 and a
 * default, one picked at load time; a libc without ifunc gets the default.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <fenv.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define NPY_NO_DEPRECATED_API NPY_1_22_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/ufuncobject.h>

#define MAX_OPERANDS 3

typedef struct {
    PyUFuncGenericFunction loop; /* NULL: the step is a vectorcall */
    void *data;
    npy_intp size;
    char *operands[MAX_OPERANDS];
    npy_intp strides[MAX_OPERANDS];
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

static void clear_fp_status(void)
{
    feclearexcept(FE_DIVBYZERO | FE_OVERFLOW | FE_UNDERFLOW | FE_INVALID);
}

/* Lower the step to its ufunc's inner loop if it qualifies; 1 if it did. */
static int lower_step(Step *s)
{
    PyUFuncObject *ufunc;
    PyObject *given[MAX_OPERANDS];
    PyArrayObject *ops[MAX_OPERANDS], *out;
    char types[MAX_OPERANDS];
    char *out_start, *out_end;
    int k, i, nargs;

    if (Py_TYPE(s->callable) != &PyUFunc_Type) {
        return 0;
    }
    ufunc = (PyUFuncObject *)s->callable;
    nargs = ufunc->nargs;
    if (ufunc->core_enabled || ufunc->nout != 1 || nargs > MAX_OPERANDS) {
        return 0;
    }
    /* the operands: every one positional, or the output as the only keyword, out= */
    if (s->kwargs == NULL && s->nargs == nargs) {
        memcpy(given, s->args, sizeof(PyObject *) * nargs);
    }
    else if (s->kwargs != NULL && s->nargs == nargs - 1 && PyDict_GET_SIZE(s->kwargs) == 1) {
        PyObject *value = PyDict_GetItem(s->kwargs, out_keyword);
        if (value == NULL) {
            return 0;
        }
        memcpy(given, s->args, sizeof(PyObject *) * (nargs - 1));
        given[nargs - 1] = value;
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
        if ((type != NPY_DOUBLE && type != NPY_BOOL) || !PyArray_ISNOTSWAPPED(ops[k])
            || !PyArray_ISALIGNED(ops[k])) {
            return 0;
        }
        types[k] = (char)type;
    }
    out = ops[nargs - 1];
    if (!PyArray_IS_C_CONTIGUOUS(out) || !PyArray_ISWRITEABLE(out)) {
        return 0;
    }
    out_start = PyArray_BYTES(out);
    out_end = out_start + PyArray_NBYTES(out);
    s->strides[nargs - 1] = PyArray_ITEMSIZE(out);
    s->operands[nargs - 1] = out_start;
    for (k = 0; k < nargs - 1; k++) {
        PyArrayObject *in = ops[k];
        char *start = PyArray_BYTES(in);
        if (PyArray_NDIM(in) == 0) {
            s->strides[k] = 0;
        }
        else if (PyArray_NDIM(in) == PyArray_NDIM(out)
                 && PyArray_CompareLists(PyArray_DIMS(in), PyArray_DIMS(out), PyArray_NDIM(out))
                 && PyArray_IS_C_CONTIGUOUS(in)) {
            s->strides[k] = PyArray_ITEMSIZE(in);
        }
        else {
            return 0;
        }
        /* an input that overlaps the output other than element for element: numpy copies it */
        if (start < out_end && out_start < start + PyArray_ITEMSIZE(in) * PyArray_SIZE(in)
            && (start != out_start
                || (s->strides[k] != s->strides[nargs - 1] && PyArray_SIZE(out) > 1))) {
            return 0;
        }
        s->operands[k] = start;
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
    s->loop = ufunc->functions[i];
    s->data = ufunc->data == NULL ? NULL : ufunc->data[i];
    s->size = PyArray_SIZE(out);
    return 1;
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
        if (s->loop != NULL) {
            s->loop(s->operands, &s->size, s->strides, s->data);
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

static int program_clear(Program *self)
{
    Py_SET_SIZE(self, 0); /* the steps' borrowed pointers go with them */
    Py_CLEAR(self->steps);
    return 0;
}

static void program_dealloc(Program *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->steps);
    PyObject_GC_Del(self);
}

static PyMemberDef program_members[] = {
    {"steps", T_OBJECT, offsetof(Program, steps), READONLY,
     "the steps, in the order they run"},
    {"lowered", T_PYSSIZET, offsetof(Program, lowered), READONLY,
     "how many steps call a ufunc's inner loop directly"},
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
    for (i = 0; i < n; i++) {
        PyObject *step = PyTuple_GET_ITEM(steps, i);
        PyObject *args = PyTuple_GET_ITEM(step, 1);
        PyObject *kwargs = PyTuple_GET_SIZE(step) == 3 ? PyTuple_GET_ITEM(step, 2) : NULL;
        Step *s = &program->step[i];
        memset(s, 0, sizeof *s);
        s->callable = PyTuple_GET_ITEM(step, 0);
        s->args = &PyTuple_GET_ITEM(args, 0);
        s->nargs = PyTuple_GET_SIZE(args);
        s->kwargs = kwargs != NULL && PyDict_GET_SIZE(kwargs) != 0 ? kwargs : NULL;
        program->lowered += lower_step(s);
    }
    PyObject_GC_Track(program);
    return (PyObject *)program;
}

#define EXPONENT UINT64_C(0x7ff0000000000000)

#if defined(__x86_64__) && defined(__GLIBC__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
static int adam_loop(npy_intp n, double *restrict value, const double *restrict grad,
                     double *restrict m, double *restrict v, double lr, double bias1, double bias2)
{
    uint64_t non_finite = 0;
    for (npy_intp i = 0; i < n; i++) {
        double g = grad[i];
        double mi = m[i] * ADAM_BETA1 + g * (1.0 - ADAM_BETA1);
        double vi = v[i] * ADAM_BETA2 + g * g * (1.0 - ADAM_BETA2);
        double x = value[i] - mi / bias1 * lr / (sqrt(vi / bias2) + ADAM_EPS);
        /* inf and NaN have every exponent bit set; an integer test keeps the loop vectorised */
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        non_finite |= (bits & EXPONENT) == EXPONENT;
        m[i] = mi;
        v[i] = vi;
        value[i] = x;
    }
    return !non_finite;
}

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
    .m_doc = "Runs programs of numpy calls, ufunc steps through their inner loops, and Adam steps.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit_guardian_runner(void)
{
    PyObject *module;

    import_array();
    import_umath();
    out_keyword = PyUnicode_InternFromString("out");
    if (out_keyword == NULL) {
        return NULL;
    }
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
