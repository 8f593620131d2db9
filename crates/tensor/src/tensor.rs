//! The [`Tensor`] type: a reference-counted, reverse-mode-differentiable
//! multi-dimensional array of `f32`.
//!
//! The autograd design is tape-free: every operation that produces a tensor
//! records (a) handles to its parent tensors and (b) a backward closure that
//! maps the output gradient to per-parent gradient contributions. Calling
//! [`Tensor::backward`] on a scalar runs a reverse topological sweep and
//! accumulates gradients into every tracked ancestor.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Backward closure: given the gradient w.r.t. this tensor's output, return
/// one gradient buffer per parent (in the same order as the recorded parents).
/// An op may return an empty buffer for a parent that was untracked when it
/// was built (tracking is fixed at build time); that parent receives nothing.
pub(crate) type BackwardFn = Box<dyn Fn(&[f32]) -> Vec<Vec<f32>>>;

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) data: Vec<f32>,
    pub(crate) shape: Vec<usize>,
    pub(crate) grad: Option<Vec<f32>>,
    /// Leaf flag: gradients should be retained here after `backward`.
    pub(crate) requires_grad: bool,
    /// True when this tensor participates in a graph that reaches a
    /// `requires_grad` leaf, so gradients must flow through it.
    pub(crate) tracked: bool,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
}

/// A multi-dimensional `f32` array with reverse-mode automatic
/// differentiation.
///
/// `Tensor` is a cheap-to-clone handle (internally `Rc`); clones share the
/// same storage and gradient. Tensors are row-major.
///
/// # Examples
///
/// ```
/// use akg_tensor::Tensor;
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).requires_grad(true);
/// let y = x.square().sum_all();
/// y.backward();
/// assert_eq!(x.grad().unwrap(), vec![2.0, 4.0, 6.0]);
/// ```
pub struct Tensor {
    pub(crate) inner: Rc<RefCell<Inner>>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor { inner: Rc::clone(&self.inner) }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Tensor")
            .field("id", &inner.id)
            .field("shape", &inner.shape)
            .field("requires_grad", &inner.requires_grad)
            .field("data", &inner.data)
            .finish()
    }
}

fn numel_of(shape: &[usize]) -> usize {
    shape.iter().product::<usize>().max(if shape.is_empty() { 1 } else { 0 })
}

impl Tensor {
    // ----------------------------------------------------------------
    // Constructors
    // ----------------------------------------------------------------

    /// Creates a tensor from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel_of(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            inner: Rc::new(RefCell::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                data,
                shape: shape.to_vec(),
                grad: None,
                requires_grad: false,
                tracked: false,
                parents: Vec::new(),
                backward: None,
            })),
        }
    }

    /// A scalar tensor of shape `[1]`.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(vec![value], &[1])
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::from_vec(vec![0.0; numel_of(shape)], shape)
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::from_vec(vec![1.0; numel_of(shape)], shape)
    }

    /// Internal: create an op output with recorded parents and backward fn.
    pub(crate) fn from_op(
        data: Vec<f32>,
        shape: &[usize],
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Self {
        let tracked = parents.iter().any(Tensor::is_tracked);
        let out = Tensor::from_vec(data, shape);
        if tracked {
            let mut inner = out.inner.borrow_mut();
            inner.tracked = true;
            inner.parents = parents;
            inner.backward = Some(backward);
        }
        out
    }

    // ----------------------------------------------------------------
    // Accessors
    // ----------------------------------------------------------------

    /// Unique identity of the underlying storage.
    pub fn id(&self) -> u64 {
        self.inner.borrow().id
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.borrow().shape.clone()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.inner.borrow().data.len()
    }

    /// Copies the underlying row-major data out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.inner.borrow().data.clone()
    }

    /// Runs `f` over a borrow of the underlying row-major data without
    /// copying it — the zero-allocation read path batched serving uses to
    /// gather token-table rows.
    ///
    /// # Panics
    ///
    /// Panics (borrow conflict) if `f` re-enters this tensor mutably, e.g.
    /// via [`Tensor::update_data`].
    pub fn with_data<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        f(&self.inner.borrow().data)
    }

    /// The single value of a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        let inner = self.inner.borrow();
        assert_eq!(inner.data.len(), 1, "item() on non-scalar tensor {:?}", inner.shape);
        inner.data[0]
    }

    /// Element of a 2-D tensor at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or indices are out of bounds.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        let inner = self.inner.borrow();
        assert_eq!(inner.shape.len(), 2, "at2 on non-2D tensor");
        let cols = inner.shape[1];
        inner.data[row * cols + col]
    }

    /// Whether gradients are retained on this tensor after `backward`.
    pub fn requires_grad_flag(&self) -> bool {
        self.inner.borrow().requires_grad
    }

    pub(crate) fn is_tracked(&self) -> bool {
        let inner = self.inner.borrow();
        inner.tracked || inner.requires_grad
    }

    /// Marks this tensor as a differentiable leaf (builder style).
    ///
    /// # Examples
    ///
    /// ```
    /// use akg_tensor::Tensor;
    /// let w = Tensor::zeros(&[2, 2]).requires_grad(true);
    /// assert!(w.requires_grad_flag());
    /// ```
    pub fn requires_grad(self, value: bool) -> Self {
        {
            let mut inner = self.inner.borrow_mut();
            inner.requires_grad = value;
        }
        self
    }

    /// Sets the `requires_grad` flag in place (used to freeze/unfreeze
    /// parameters between the training and adaptation phases).
    pub fn set_requires_grad(&self, value: bool) {
        self.inner.borrow_mut().requires_grad = value;
    }

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<Vec<f32>> {
        self.inner.borrow().grad.clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad = None;
    }

    /// Overwrites the data in place without recording a graph operation.
    ///
    /// # Panics
    ///
    /// Panics if `data` length mismatches the tensor's element count.
    pub fn set_data(&self, data: &[f32]) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.data.len(), data.len(), "set_data length mismatch");
        inner.data.copy_from_slice(data);
    }

    /// Applies `f` to the raw data in place (no autograd). Used by optimizers.
    pub fn update_data<F: FnOnce(&mut [f32])>(&self, f: F) {
        let mut inner = self.inner.borrow_mut();
        f(&mut inner.data);
    }

    pub(crate) fn accumulate_grad(&self, contribution: &[f32]) {
        let mut inner = self.inner.borrow_mut();
        debug_assert_eq!(inner.data.len(), contribution.len(), "gradient shape mismatch");
        match &mut inner.grad {
            Some(g) => {
                for (gi, ci) in g.iter_mut().zip(contribution) {
                    *gi += ci;
                }
            }
            None => inner.grad = Some(contribution.to_vec()),
        }
    }

    /// Like [`Tensor::accumulate_grad`] but takes ownership of the
    /// contribution, so the first contribution to a tensor becomes its
    /// gradient buffer directly instead of being copied. Backward closures
    /// return freshly-allocated buffers, so the reverse sweep moves every
    /// single-use gradient rather than cloning it.
    pub(crate) fn accumulate_grad_owned(&self, contribution: Vec<f32>) {
        let mut inner = self.inner.borrow_mut();
        debug_assert_eq!(inner.data.len(), contribution.len(), "gradient shape mismatch");
        match &mut inner.grad {
            Some(g) => {
                for (gi, ci) in g.iter_mut().zip(&contribution) {
                    *gi += ci;
                }
            }
            None => inner.grad = Some(contribution),
        }
    }

    // ----------------------------------------------------------------
    // Backward
    // ----------------------------------------------------------------

    /// Runs reverse-mode differentiation from this scalar tensor, seeding the
    /// output gradient with `1.0`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a scalar; use [`Tensor::backward_with`]
    /// to seed a non-scalar output.
    pub fn backward(&self) {
        assert_eq!(self.numel(), 1, "backward() requires a scalar; use backward_with");
        self.backward_with(&[1.0]);
    }

    /// Runs reverse-mode differentiation seeding the output gradient with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `seed` length mismatches the tensor's element count.
    pub fn backward_with(&self, seed: &[f32]) {
        assert_eq!(self.numel(), seed.len(), "backward seed length mismatch");
        // Iterative post-order DFS so deep graphs cannot overflow the stack.
        let mut topo: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((node, children_done)) = stack.pop() {
            let id = node.id();
            if children_done {
                topo.push(node);
                continue;
            }
            if !visited.insert(id) {
                continue;
            }
            stack.push((node.clone(), true));
            let parents = node.inner.borrow().parents.clone();
            for p in parents {
                if p.is_tracked() && !visited.contains(&p.id()) {
                    stack.push((p, false));
                }
            }
        }
        self.accumulate_grad(seed);
        for node in topo.iter().rev() {
            let (grad_out, parents) = {
                let mut inner = node.inner.borrow_mut();
                if inner.backward.is_none() {
                    continue;
                }
                // Intermediate nodes never need their gradient again after
                // this visit, so take the buffer out instead of cloning it;
                // only leaves (requires_grad) retain a copy for the caller.
                let grad = if inner.requires_grad {
                    match &inner.grad {
                        Some(g) => g.clone(),
                        None => continue,
                    }
                } else {
                    match inner.grad.take() {
                        Some(g) => g,
                        None => continue,
                    }
                };
                (grad, inner.parents.clone())
            };
            // Call the closure without holding the borrow (the closure only
            // captures copied data, never the node itself).
            let contributions = {
                let inner = node.inner.borrow();
                (inner.backward.as_ref().expect("backward fn"))(&grad_out)
            };
            debug_assert_eq!(contributions.len(), parents.len());
            for (parent, contribution) in parents.iter().zip(contributions) {
                if !contribution.is_empty() && parent.is_tracked() {
                    // Move the buffer: a parent's first contribution becomes
                    // its gradient storage with no copy.
                    parent.accumulate_grad_owned(contribution);
                }
            }
        }
    }
}

impl Tensor {
    /// Rescales the accumulated gradient so its L2 norm is at most
    /// `max_norm` (no-op when there is no gradient or it is already small).
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&self, max_norm: f32) -> f32 {
        let mut inner = self.inner.borrow_mut();
        let Some(grad) = &mut inner.grad else { return 0.0 };
        let norm = grad.iter().map(|g| g * g).sum::<f32>().sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for g in grad.iter_mut() {
                *g *= scale;
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_shape_checked() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.shape(), vec![2, 2]);
        assert_eq!(t.numel(), 4);
        assert_eq!(t.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(4.25).item(), 4.25);
    }

    #[test]
    fn clone_shares_storage() {
        let a = Tensor::zeros(&[3]);
        let b = a.clone();
        a.set_data(&[1.0, 2.0, 3.0]);
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn grad_accumulates_across_uses() {
        let x = Tensor::from_vec(vec![3.0], &[1]).requires_grad(true);
        let y = x.clone().mul(&x); // x^2, x used twice
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![6.0]);
    }

    #[test]
    fn zero_grad_clears() {
        let x = Tensor::scalar(2.0).requires_grad(true);
        let y = x.square();
        y.backward();
        assert!(x.grad().is_some());
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn untracked_graph_records_nothing() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::ones(&[2]);
        let c = a.add(&b);
        assert!(!c.is_tracked());
        assert!(c.inner.borrow().backward.is_none());
    }

    #[test]
    #[should_panic(expected = "requires a scalar")]
    fn backward_requires_scalar() {
        let x = Tensor::ones(&[2]).requires_grad(true);
        x.backward();
    }
}
