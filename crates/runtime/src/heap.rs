//! The managed heap: objects, arrays, monitors and statics.

use crate::tlab::{ChunkAllocator, TLAB_CELLS};
use crate::{Stats, Value, VmError};
use pea_bytecode::{ClassId, FieldId, Program, StaticDecl, ValueKind};
use pea_metrics::HeapRecorder;
use std::fmt;
use std::sync::Arc;

/// A non-null reference into the [`Heap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(u32);

impl ObjRef {
    /// Raw heap index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a reference from a raw heap index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ObjRef(u32::try_from(index).expect("heap index exceeds u32"))
    }
}

impl fmt::Debug for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Payload of a heap cell: a class instance or an array.
#[derive(Clone, Debug)]
pub enum HeapObject {
    /// An instance with fields laid out per
    /// [`Program::instance_fields`].
    Instance {
        /// Dynamic class.
        class: ClassId,
        /// Field values in layout order.
        fields: Vec<Value>,
    },
    /// An array of a single element kind.
    Array {
        /// Element kind.
        kind: ValueKind,
        /// Element values.
        elems: Vec<Value>,
    },
}

/// One heap cell: payload plus its (single-threaded) monitor.
#[derive(Clone, Debug)]
pub struct HeapCell {
    /// Object payload.
    pub object: HeapObject,
    /// Recursive monitor hold count.
    pub lock_count: u32,
}

/// Static (global) variable storage.
#[derive(Clone, Debug, Default)]
pub struct Statics {
    values: Vec<Value>,
}

impl Statics {
    /// Creates storage with default values for each declaration.
    pub fn new(decls: &[StaticDecl]) -> Self {
        Statics {
            values: decls.iter().map(|d| Value::default_for(d.kind)).collect(),
        }
    }

    /// Reads a static variable.
    #[inline]
    pub fn get(&self, id: pea_bytecode::StaticId) -> Value {
        self.values[id.index()]
    }

    /// Writes a static variable.
    #[inline]
    pub fn set(&mut self, id: pea_bytecode::StaticId, value: Value) {
        self.values[id.index()] = value;
    }

    /// Resets all statics to their default values.
    pub fn reset(&mut self, decls: &[StaticDecl]) {
        self.values = decls.iter().map(|d| Value::default_for(d.kind)).collect();
    }
}

/// The managed heap. Allocation is a bump into a vector; every allocation
/// and monitor operation updates [`Stats`], which is what the paper's
/// Table 1 measures.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    cells: Vec<HeapCell>,
    /// Execution statistics, updated by allocation and monitor operations.
    pub stats: Stats,
    recorder: HeapRecorder,
    /// Shared TLAB capacity source; when set, cell storage grows in
    /// chunk-granted increments instead of `Vec`'s doubling.
    tlab: Option<Arc<ChunkAllocator>>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a metrics recorder; every subsequent allocation also feeds
    /// the per-class counters of the recorder's hub.
    pub fn set_metrics(&mut self, recorder: HeapRecorder) {
        self.recorder = recorder;
    }

    /// Attaches the VM-wide chunk allocator this heap draws TLAB capacity
    /// from. Bump allocation stays thread-local; only capacity grants touch
    /// the (lock-free) shared allocator.
    pub fn set_chunk_source(&mut self, source: Arc<ChunkAllocator>) {
        self.tlab = Some(source);
    }

    /// Folds any buffered per-thread allocation counts into the shared
    /// metrics registry. Called at quiescent points (outermost call exit,
    /// metrics snapshot, mutator teardown); a no-op for direct recorders.
    pub fn flush_metrics(&mut self) {
        self.recorder.flush();
    }

    /// Number of live cells (allocations since creation; nothing is freed).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the heap has no allocations.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Allocates a class instance with default-valued fields.
    pub fn alloc_instance(&mut self, program: &Program, class: ClassId) -> ObjRef {
        let layout = program.layout(class);
        let fields = layout
            .kinds
            .iter()
            .map(|&k| Value::default_for(k))
            .collect();
        let bytes = layout.bytes;
        self.stats.record_alloc(bytes);
        self.recorder.record_instance(class.index(), bytes);
        self.push(HeapObject::Instance { class, fields })
    }

    /// Allocates an array of `len` default-valued elements.
    ///
    /// # Errors
    ///
    /// [`VmError::NegativeArrayLength`] if `len < 0`.
    pub fn alloc_array(&mut self, kind: ValueKind, len: i64) -> Result<ObjRef, VmError> {
        if len < 0 {
            return Err(VmError::NegativeArrayLength(len));
        }
        let bytes = Program::array_size(len as u64);
        self.stats.record_alloc(bytes);
        self.recorder.record_array(bytes);
        Ok(self.push(HeapObject::Array {
            kind,
            elems: vec![Value::default_for(kind); len as usize],
        }))
    }

    fn push(&mut self, object: HeapObject) -> ObjRef {
        if let Some(tlab) = &self.tlab {
            if self.cells.len() == self.cells.capacity() {
                // Geometric: request enough chunks to double the arena
                // (minimum one), so repeated growth copies O(n) cells
                // total while the allocator's accounting stays
                // chunk-granular.
                let chunks = self.cells.capacity().max(1).div_ceil(TLAB_CELLS);
                let cells = tlab.grant_many(chunks);
                self.cells.reserve_exact(cells);
                self.recorder.record_tlab_grant(chunks as u64, cells as u64);
            }
        }
        self.cells.push(HeapCell {
            object,
            lock_count: 0,
        });
        ObjRef::from_index(self.cells.len() - 1)
    }

    /// Immutable access to a cell.
    #[inline]
    pub fn cell(&self, r: ObjRef) -> &HeapCell {
        &self.cells[r.index()]
    }

    /// Dynamic class of an instance.
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] if `r` is an array.
    pub fn class_of(&self, r: ObjRef) -> Result<ClassId, VmError> {
        match &self.cell(r).object {
            HeapObject::Instance { class, .. } => Ok(*class),
            HeapObject::Array { .. } => Err(VmError::TypeMismatch {
                expected: "instance",
                found: "array",
            }),
        }
    }

    /// Field slot index of `field` within the layout of `r`'s class.
    fn field_slot(&self, program: &Program, r: ObjRef, field: FieldId) -> Result<usize, VmError> {
        let class = self.class_of(r)?;
        program
            .layout(class)
            .fields
            .iter()
            .position(|&f| f == field)
            .ok_or_else(|| {
                VmError::NoSuchField(format!(
                    "{}.{}",
                    program.class(program.field(field).class).name,
                    program.field(field).name
                ))
            })
    }

    /// Reads an instance field.
    ///
    /// # Errors
    ///
    /// Field-resolution and kind errors as in [`VmError`].
    pub fn get_field(
        &self,
        program: &Program,
        r: ObjRef,
        field: FieldId,
    ) -> Result<Value, VmError> {
        let slot = self.field_slot(program, r, field)?;
        match &self.cell(r).object {
            HeapObject::Instance { fields, .. } => Ok(fields[slot]),
            HeapObject::Array { .. } => unreachable!("field_slot checked instance"),
        }
    }

    /// Writes an instance field.
    ///
    /// # Errors
    ///
    /// Field-resolution errors as in [`VmError`].
    pub fn put_field(
        &mut self,
        program: &Program,
        r: ObjRef,
        field: FieldId,
        value: Value,
    ) -> Result<(), VmError> {
        let slot = self.field_slot(program, r, field)?;
        match &mut self.cells[r.index()].object {
            HeapObject::Instance { fields, .. } => {
                fields[slot] = value;
                Ok(())
            }
            HeapObject::Array { .. } => unreachable!("field_slot checked instance"),
        }
    }

    /// Reads an instance field at a pre-resolved `(declaring class, slot)`
    /// offset — the linear tier's fast path. Object layouts are
    /// prefix-stable (superclass fields first), so one subclass check
    /// validates the slot; anything else falls back to [`Self::get_field`]
    /// for byte-identical error reporting.
    ///
    /// # Errors
    ///
    /// Exactly as [`Self::get_field`].
    pub fn get_field_at(
        &self,
        program: &Program,
        r: ObjRef,
        declaring: ClassId,
        slot: usize,
        field: FieldId,
    ) -> Result<Value, VmError> {
        if let HeapObject::Instance { class, fields } = &self.cell(r).object {
            if program.is_subclass_of(*class, declaring) {
                return Ok(fields[slot]);
            }
        }
        self.get_field(program, r, field)
    }

    /// Writes an instance field at a pre-resolved offset; see
    /// [`Self::get_field_at`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Self::put_field`].
    pub fn put_field_at(
        &mut self,
        program: &Program,
        r: ObjRef,
        declaring: ClassId,
        slot: usize,
        field: FieldId,
        value: Value,
    ) -> Result<(), VmError> {
        if let HeapObject::Instance { class, fields } = &mut self.cells[r.index()].object {
            if program.is_subclass_of(*class, declaring) {
                fields[slot] = value;
                return Ok(());
            }
        }
        self.put_field(program, r, field, value)
    }

    /// Reads an array element.
    ///
    /// # Errors
    ///
    /// [`VmError::IndexOutOfBounds`] or [`VmError::TypeMismatch`].
    pub fn array_get(&self, r: ObjRef, index: i64) -> Result<Value, VmError> {
        match &self.cell(r).object {
            HeapObject::Array { elems, .. } => {
                if index < 0 || index as usize >= elems.len() {
                    return Err(VmError::IndexOutOfBounds {
                        index,
                        length: elems.len(),
                    });
                }
                Ok(elems[index as usize])
            }
            HeapObject::Instance { .. } => Err(VmError::TypeMismatch {
                expected: "array",
                found: "instance",
            }),
        }
    }

    /// Writes an array element.
    ///
    /// # Errors
    ///
    /// [`VmError::IndexOutOfBounds`] or [`VmError::TypeMismatch`].
    pub fn array_set(&mut self, r: ObjRef, index: i64, value: Value) -> Result<(), VmError> {
        match &mut self.cells[r.index()].object {
            HeapObject::Array { elems, .. } => {
                if index < 0 || index as usize >= elems.len() {
                    return Err(VmError::IndexOutOfBounds {
                        index,
                        length: elems.len(),
                    });
                }
                elems[index as usize] = value;
                Ok(())
            }
            HeapObject::Instance { .. } => Err(VmError::TypeMismatch {
                expected: "array",
                found: "instance",
            }),
        }
    }

    /// Array length.
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] on instances.
    pub fn array_length(&self, r: ObjRef) -> Result<i64, VmError> {
        match &self.cell(r).object {
            HeapObject::Array { elems, .. } => Ok(elems.len() as i64),
            HeapObject::Instance { .. } => Err(VmError::TypeMismatch {
                expected: "array",
                found: "instance",
            }),
        }
    }

    /// Acquires the monitor of `r` (recursively) and counts the operation.
    pub fn monitor_enter(&mut self, r: ObjRef) {
        self.cells[r.index()].lock_count += 1;
        self.stats.monitor_enters += 1;
    }

    /// Releases the monitor of `r` and counts the operation.
    ///
    /// # Errors
    ///
    /// [`VmError::IllegalMonitorState`] if the monitor is not held.
    pub fn monitor_exit(&mut self, r: ObjRef) -> Result<(), VmError> {
        let cell = &mut self.cells[r.index()];
        if cell.lock_count == 0 {
            return Err(VmError::IllegalMonitorState);
        }
        cell.lock_count -= 1;
        self.stats.monitor_exits += 1;
        Ok(())
    }

    /// Current recursive hold count of `r`'s monitor.
    pub fn lock_count(&self, r: ObjRef) -> u32 {
        self.cell(r).lock_count
    }

    /// Total monitor holds across the heap (0 when all lock/unlock pairs
    /// are balanced; asserted by tests at quiescent points).
    pub fn total_lock_holds(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.lock_count)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::{ProgramBuilder, StaticId};

    fn program() -> (Program, ClassId, FieldId, FieldId) {
        let mut pb = ProgramBuilder::new();
        let key = pb.add_class("Key", None);
        let idx = pb.add_field(key, "idx", ValueKind::Int);
        let rf = pb.add_field(key, "ref", ValueKind::Ref);
        pb.add_static("g", ValueKind::Ref);
        (pb.build().unwrap(), key, idx, rf)
    }

    #[test]
    fn alloc_initializes_defaults_and_counts() {
        let (p, key, idx, rf) = program();
        let mut heap = Heap::new();
        let r = heap.alloc_instance(&p, key);
        assert_eq!(heap.get_field(&p, r, idx).unwrap(), Value::Int(0));
        assert_eq!(heap.get_field(&p, r, rf).unwrap(), Value::Null);
        assert_eq!(heap.stats.alloc_count, 1);
        assert_eq!(heap.stats.alloc_bytes, 16 + 16);
    }

    #[test]
    fn field_round_trip() {
        let (p, key, idx, _) = program();
        let mut heap = Heap::new();
        let r = heap.alloc_instance(&p, key);
        heap.put_field(&p, r, idx, Value::Int(42)).unwrap();
        assert_eq!(heap.get_field(&p, r, idx).unwrap(), Value::Int(42));
    }

    #[test]
    fn arrays_round_trip_and_bound_check() {
        let mut heap = Heap::new();
        let r = heap.alloc_array(ValueKind::Int, 3).unwrap();
        heap.array_set(r, 2, Value::Int(9)).unwrap();
        assert_eq!(heap.array_get(r, 2).unwrap(), Value::Int(9));
        assert_eq!(heap.array_length(r).unwrap(), 3);
        assert!(matches!(
            heap.array_get(r, 3),
            Err(VmError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            heap.array_get(r, -1),
            Err(VmError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn negative_array_length_rejected() {
        let mut heap = Heap::new();
        assert_eq!(
            heap.alloc_array(ValueKind::Ref, -1).unwrap_err(),
            VmError::NegativeArrayLength(-1)
        );
    }

    #[test]
    fn monitors_count_and_balance() {
        let (p, key, ..) = program();
        let mut heap = Heap::new();
        let r = heap.alloc_instance(&p, key);
        heap.monitor_enter(r);
        heap.monitor_enter(r);
        assert_eq!(heap.lock_count(r), 2);
        heap.monitor_exit(r).unwrap();
        heap.monitor_exit(r).unwrap();
        assert_eq!(
            heap.monitor_exit(r).unwrap_err(),
            VmError::IllegalMonitorState
        );
        assert_eq!(heap.stats.monitor_enters, 2);
        assert_eq!(heap.stats.monitor_exits, 2);
        assert_eq!(heap.total_lock_holds(), 0);
    }

    #[test]
    fn statics_default_and_set() {
        let (p, ..) = program();
        let mut statics = Statics::new(&p.statics);
        let g = StaticId(0);
        assert_eq!(statics.get(g), Value::Null);
        statics.set(g, Value::Int(5));
        assert_eq!(statics.get(g), Value::Int(5));
        statics.reset(&p.statics);
        assert_eq!(statics.get(g), Value::Null);
    }

    #[test]
    fn array_bytes_accounted() {
        let mut heap = Heap::new();
        heap.alloc_array(ValueKind::Int, 10).unwrap();
        assert_eq!(heap.stats.alloc_bytes, 16 + 80);
    }

    #[test]
    fn attached_recorder_sees_instances_and_arrays() {
        let (p, key, ..) = program();
        let hub = pea_metrics::MetricsHub::enabled();
        let names: Vec<&str> = p.classes.iter().map(|c| c.name.as_str()).collect();
        let mut heap = Heap::new();
        heap.set_metrics(HeapRecorder::new(&hub, names));
        heap.alloc_instance(&p, key);
        heap.alloc_array(ValueKind::Int, 10).unwrap();
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.counter("heap.allocs"), 2);
        assert_eq!(snap.counter("heap.bytes"), heap.stats.alloc_bytes);
        assert_eq!(snap.counter("heap.class.Key.allocs"), 1);
        assert_eq!(snap.counter("heap.class.array.allocs"), 1);
    }

    #[test]
    fn tlab_capacity_granted_in_chunks_and_counted() {
        let (p, key, ..) = program();
        let hub = pea_metrics::MetricsHub::enabled();
        let names: Vec<&str> = p.classes.iter().map(|c| c.name.as_str()).collect();
        let source = Arc::new(ChunkAllocator::new());
        let mut heap = Heap::new();
        heap.set_metrics(HeapRecorder::buffered(&hub, names));
        heap.set_chunk_source(Arc::clone(&source));
        for _ in 0..TLAB_CELLS + 1 {
            heap.alloc_instance(&p, key);
        }
        assert_eq!(source.chunks_granted(), 2);
        assert_eq!(source.cells_granted(), 2 * TLAB_CELLS as u64);
        // Buffered counts are invisible until the quiescent-point flush.
        assert_eq!(hub.snapshot().unwrap().counter("heap.allocs"), 0);
        heap.flush_metrics();
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.counter("heap.allocs"), TLAB_CELLS as u64 + 1);
        assert_eq!(snap.counter("heap.class.Key.allocs"), TLAB_CELLS as u64 + 1);
        assert_eq!(snap.counter("heap.tlab_chunks"), 2);
        assert_eq!(snap.counter("heap.tlab_cells"), 2 * TLAB_CELLS as u64);
    }

    #[test]
    fn class_of_rejects_arrays() {
        let mut heap = Heap::new();
        let r = heap.alloc_array(ValueKind::Int, 1).unwrap();
        assert!(heap.class_of(r).is_err());
    }
}
