//! End-to-end smoke tests for the full Hemlock stack.

use hemlock::{ShareClass, World, WorldExit};

const COUNTER: &str = r#"
.module counter
.text
.globl bump
bump:   la   r8, count
        lw   r9, 0(r8)
        addi r9, r9, 1
        sw   r9, 0(r8)
        or   v0, r9, r0
        jr   ra
.data
.globl count
count:  .word 0
"#;

#[test]
fn static_private_only() {
    let mut world = World::new();
    world
        .install_template(
            "/src/main.o",
            ".module main\n.text\n.globl main\nmain: li v0, 41\naddi v0, v0, 1\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link("/bin/p", &[("/src/main.o", ShareClass::StaticPrivate)])
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    let exit = world.run(10_000);
    assert_eq!(exit, WorldExit::AllExited, "log: {:?}", world.log);
    assert_eq!(world.exit_code(pid), Some(42), "log: {:?}", world.log);
}

#[test]
fn dynamic_public_counter() {
    let mut world = World::new();
    world
        .install_template("/shared/lib/counter.o", COUNTER)
        .unwrap();
    world
        .install_template(
            "/src/main.o",
            ".module main\n.text\n.globl main\nmain: addi sp, sp, -8\nsw ra, 0(sp)\njal bump\njal bump\nlw ra, 0(sp)\naddi sp, sp, 8\njr ra\n",
        )
        .unwrap();
    let exe = world
        .link(
            "/bin/demo",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/counter.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let pid = world.spawn(&exe).unwrap();
    let exit = world.run(10_000);
    assert_eq!(exit, WorldExit::AllExited, "log: {:?}", world.log);
    assert_eq!(world.exit_code(pid), Some(2), "log: {:?}", world.log);
    assert_eq!(
        world
            .peek_shared_word("/shared/lib/counter", "count")
            .unwrap(),
        2
    );

    // A second, separately linked program sees the same counter.
    let exe2 = world
        .link(
            "/bin/demo2",
            &[
                ("/src/main.o", ShareClass::StaticPrivate),
                ("/shared/lib/counter.o", ShareClass::DynamicPublic),
            ],
        )
        .unwrap();
    let pid2 = world.spawn(&exe2).unwrap();
    let exit = world.run(10_000);
    assert_eq!(exit, WorldExit::AllExited, "log: {:?}", world.log);
    assert_eq!(world.exit_code(pid2), Some(4), "log: {:?}", world.log);
}

#[test]
fn log_keeps_only_the_newest_lines_of_a_long_lived_world() {
    let mut world = World::new();
    world.log.extend((0..9000).map(|i| format!("line {i}")));
    assert_eq!(world.run(1), WorldExit::AllExited);
    assert_eq!(world.log.len(), 4096);
    assert_eq!(world.log.first().map(String::as_str), Some("line 4904"));
    assert_eq!(world.log.last().map(String::as_str), Some("line 8999"));
    // Below twice the bound nothing is dropped.
    world.log.extend((0..4000).map(|i| format!("more {i}")));
    world.reboot();
    assert_eq!(world.log.len(), 4096 + 4000 + 1);
}
